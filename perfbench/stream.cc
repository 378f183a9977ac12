// stream_window_rule: inserts through stream::IngestDriver (default
// options) into a standing corpus, with one subscriber and one reader.
//
// Phase 1 (light load) is an open loop with fixed spacing, wide enough
// that every op is flushed alone; it gives the delivered latency. Phase 2
// (saturation) offers held-back records as fast as backpressure admits,
// so most flushes take a full queue; it gives ingest capacity. The
// workload never takes the update and remove paths.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "datagen/noise.h"
#include "stream/ingest_driver.h"
#include "util/fnv.h"
#include "workloads.h"

namespace mdmatch::perfbench {
namespace {

constexpr size_t kReadBlock = 16384;
/// Queries per reader request; each request pins the current generation.
constexpr size_t kRequestQueries = 64;

/// The subscriber: stamps each delta on arrival, applies it to the
/// benchmark's strict replica, and keeps the first three for the
/// self-test.
class RecordingSink : public stream::MatchDeltaSink {
 public:
  void OnDelta(const stream::MatchDelta& delta) override {
    const int64_t now = Tracer::NowNs();
    ScopedSpan span("stream.MatchDeltaSink.OnDelta", delta.to_generation);
    util::MutexLock lock(mu_);
    Status st = replica_.Apply(delta);
    if (!st.ok()) errors_.push_back(st.ToString());
    if (kept_.size() < 3) kept_.push_back(delta);
    arrived_ns_[delta.to_generation] = now;
    last_generation_ = delta.to_generation;
    cv_.NotifyAll();
  }

  /// Arrival time of the first delta reaching `generation`.
  int64_t WaitFor(uint64_t generation) {
    util::MutexLock lock(mu_);
    while (last_generation_ < generation) cv_.Wait(mu_);
    return arrived_ns_.lower_bound(generation)->second;
  }

  IdPairSet pairs() const {
    util::MutexLock lock(mu_);
    return replica_.pairs();
  }
  std::vector<std::string> errors() const {
    util::MutexLock lock(mu_);
    return errors_;
  }
  std::vector<stream::MatchDelta> kept() const {
    util::MutexLock lock(mu_);
    return kept_;
  }

 private:
  mutable util::Mutex mu_;
  util::CondVar cv_;
  StrictReplica replica_ GUARDED_BY(mu_);
  std::vector<std::string> errors_ GUARDED_BY(mu_);
  std::vector<stream::MatchDelta> kept_ GUARDED_BY(mu_);
  std::map<uint64_t, int64_t> arrived_ns_ GUARDED_BY(mu_);
  uint64_t last_generation_ GUARDED_BY(mu_) = 0;
};

/// The inserts of both phases: held-back records, then copies of standing
/// records with one target attribute re-typoed, under fresh ids.
std::vector<std::pair<int, Tuple>> MakeSupply(
    const datagen::CreditBillingData& data, const Split& split, size_t n,
    uint64_t seed) {
  std::vector<std::pair<int, Tuple>> out;
  Rng rng(seed ^ 0x57eaULL);
  size_t cursor[2] = {0, 0};
  TupleId next_id[2] = {static_cast<TupleId>(data.instance.left().size()),
                        static_cast<TupleId>(data.instance.right().size())};
  for (size_t k = 0; k < n; ++k) {
    const int side = static_cast<int>(k & 1);
    const Relation& rel = data.instance.side(side);
    if (cursor[side] < split.held_back[side].size()) {
      out.emplace_back(side, rel.tuple(split.held_back[side][cursor[side]++]));
      continue;
    }
    const Tuple& src =
        rel.tuple(split.standing[side][rng.Index(split.standing[side].size())]);
    Tuple copy(next_id[side]++, src.values(), src.entity());
    const auto& targets = side == 0 ? data.target.left() : data.target.right();
    const AttrId attr = targets[rng.Index(targets.size())];
    copy.set_value(attr, datagen::MakeTypo(&rng, src.value(attr)));
    out.emplace_back(side, std::move(copy));
  }
  return out;
}

struct Stack {
  std::unique_ptr<Dataset> data;
  std::unique_ptr<RecordingSink> sink;
  std::unique_ptr<stream::IngestDriver> driver;
};

}  // namespace

int RunStream(const Args& args, Report* report) {
  const Sizes sizes = SizesFor(args);
  const size_t light_ops = static_cast<size_t>(
      std::llround(0.5 * args.seconds * 1e3 / sizes.light_spacing_ms));

  std::vector<double> setup_s, bulk_s;
  std::vector<SetupTimes> setup_times;
  Stack stack;
  Split split;
  for (size_t i = 0; i < sizes.setups; ++i) {
    stack.driver.reset();
    stack = Stack{};
    stack.data = std::make_unique<Dataset>();
    Stopwatch watch;
    Status st = BuildDataset(sizes.num_base, args.seed,
                             api::PlanOptions::Matcher::kRuleBased,
                             stack.data.get());
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    split = SplitRecords(stack.data->data.instance, args.seed);
    stack.driver = std::make_unique<stream::IngestDriver>(stack.data->plan);
    Stopwatch bulk;
    {
      ScopedSpan span("api.session.bulk_load");
      for (int side = 0; side < 2; ++side) {
        for (uint32_t pos : split.standing[side]) {
          Status up = stack.driver->Upsert(
              side, stack.data->data.instance.side(side).tuple(pos));
          if (!up.ok()) report->Failed(up.ToString());
        }
      }
      auto drained = stack.driver->Drain();
      if (!drained.ok()) report->Failed(drained.status().ToString());
    }
    bulk_s.push_back(bulk.ElapsedSeconds());
    setup_s.push_back(watch.ElapsedSeconds());
    setup_times.push_back(stack.data->times);
  }
  const datagen::CreditBillingData& data = stack.data->data;
  stream::IngestDriver& driver = *stack.driver;

  const std::vector<std::pair<int, Tuple>> supply =
      MakeSupply(data, split, light_ops + sizes.sat_supply, args.seed);
  std::map<IdKey, Tuple> model;
  for (int side = 0; side < 2; ++side) {
    for (uint32_t pos : split.standing[side]) {
      const Tuple& t = data.instance.side(side).tuple(pos);
      model[{side, t.id()}] = t;
    }
  }
  uint64_t fingerprint = FingerprintInstance(data.instance);
  for (const auto& [side, t] : supply) {
    fingerprint = FingerprintTuple(fingerprint, side, t);
    model[{side, t.id()}] = t;
  }
  PrintHeader(args, fingerprint,
              "session 1 (IngestDriver flusher), subscriber 1, producer 1, reader 1",
              "K=" + std::to_string(sizes.num_base) + " standing=" +
                  std::to_string(split.standing[0].size() +
                                 split.standing[1].size()) +
                  " light=" + std::to_string(light_ops) + " ops every " +
                  std::to_string(sizes.light_spacing_ms) +
                  " ms, saturation=" + std::to_string(sizes.sat_supply) +
                  " inserts, reader_ids=" + std::to_string(sizes.reader_ids) +
                  "/side");

  stack.sink = std::make_unique<RecordingSink>();
  stream::SubscribeOptions sub_options;
  sub_options.initial_snapshot = true;
  driver.Subscribe(stack.sink.get(), sub_options);
  RecordingSink& sink = *stack.sink;

  // The reader, on standing ids (the workload only inserts).
  std::vector<TupleId> reader_ids[2];
  for (int side = 0; side < 2; ++side) {
    for (size_t i = 0; i < split.standing[side].size() && i < sizes.reader_ids;
         ++i) {
      reader_ids[side].push_back(
          data.instance.side(side).tuple(split.standing[side][i]).id());
    }
  }
  std::atomic<bool> stop{false};
  std::vector<double> read_rates;
  std::thread reader([&] {
    std::optional<api::SessionView> view;
    read_rates = ReadBlocks(
        stop, kReadBlock, args.seed ^ 0x4eadULL,
        [&](Rng* rng, size_t i) {
          if (i % kRequestQueries == 0) view = driver.View();
          const int side = static_cast<int>(i & 1);
          const auto& ids = reader_ids[side];
          const TupleId id = ids[rng->Index(ids.size())];
          if ((i & 3) == 3) {
            const auto& others = reader_ids[1 - side];
            return view
                ->SameCluster(side, id, 1 - side,
                              others[rng->Index(others.size())])
                .ok();
          }
          return view->ClusterOf(side, id).ok();
        },
        report);
  });

  // ------------------------------------------------ phase 1: light load
  const stream::IngestStats before_light = driver.stats();
  std::vector<int64_t> due_ns(light_ops), visible_ns(light_ops);
  std::vector<uint64_t> generation(light_ops);
  std::vector<double> late_ms, enqueue_us, diff_ms;
  std::vector<api::IngestReport> light_reports;
  bool alone = true;
  std::unique_ptr<api::SessionView> prev_view;
  const int64_t spacing_ns =
      static_cast<int64_t>(sizes.light_spacing_ms * 1e6);
  const int64_t start_ns = Tracer::NowNs() + spacing_ns;
  for (size_t i = 0; i < light_ops; ++i) {
    due_ns[i] = start_ns + static_cast<int64_t>(i) * spacing_ns;
    std::this_thread::sleep_for(
        std::chrono::nanoseconds(due_ns[i] - Tracer::NowNs()));
    const int64_t sent = Tracer::NowNs();
    late_ms.push_back(static_cast<double>(sent - due_ns[i]) / 1e6);
    Status st = [&] {
      ScopedSpan span("stream.IngestDriver.Upsert", i);
      return driver.Upsert(supply[i].first, supply[i].second);
    }();
    enqueue_us.push_back(static_cast<double>(Tracer::NowNs() - sent) / 1e3);
    report->Attempted();
    if (!st.ok()) report->Failed(st.ToString());
    auto drained = [&] {
      ScopedSpan span("stream.IngestDriver.Drain", i);
      return driver.Drain();
    }();
    visible_ns[i] = Tracer::NowNs();
    if (!drained.ok()) {
      report->Failed(drained.status().ToString());
      continue;
    }
    generation[i] = drained->generation;
    alone = alone && drained->upserted == 1;
    light_reports.push_back(*drained);
    if (args.trace) {
      auto cur = std::make_unique<api::SessionView>(driver.View());
      if (prev_view) {
        Stopwatch watch;
        ScopedSpan span("stream.GenerationDiff", i);
        stream::MatchDelta delta =
            stream::GenerationDiff(*prev_view->state(), *cur->state());
        diff_ms.push_back(watch.ElapsedMillis());
      }
      prev_view = std::move(cur);
    }
  }
  prev_view.reset();
  const stream::IngestStats after_light = driver.stats();
  report->Check(alone && after_light.flushes - before_light.flushes ==
                             light_ops &&
                    after_light.ops_flushed - before_light.ops_flushed ==
                        light_ops,
                "light phase flushed every op alone");
  std::vector<double> visible_ms, delivered_ms, deliver_ms;
  for (size_t i = 0; i < light_ops; ++i) {
    // The generation is published by the time either Drain returns or
    // the sink holds its delta, whichever came first.
    const int64_t arrived = sink.WaitFor(generation[i]);
    const int64_t published = std::min(arrived, visible_ns[i]);
    visible_ms.push_back(static_cast<double>(published - due_ns[i]) / 1e6);
    delivered_ms.push_back(static_cast<double>(arrived - due_ns[i]) / 1e6);
    deliver_ms.push_back(static_cast<double>(arrived - published) / 1e6);
  }

  // ------------------------------------------------ phase 2: saturation
  std::vector<double> depths;
  const int64_t sat_start = Tracer::NowNs();
  for (size_t i = light_ops; i < supply.size(); ++i) {
    Status st = driver.Upsert(supply[i].first, supply[i].second);
    report->Attempted();
    if (!st.ok()) report->Failed(st.ToString());
    if (args.trace && (i & 255) == 0) {
      depths.push_back(static_cast<double>(driver.stats().queue_depth));
    }
  }
  auto last = driver.Drain();
  if (!last.ok()) report->Failed(last.status().ToString());
  const int64_t sat_end = sink.WaitFor(last.ok() ? last->generation : 0);
  const stream::IngestStats after_sat = driver.stats();
  stop.store(true);
  reader.join();
  driver.Stop();

  const double sat_s = static_cast<double>(sat_end - sat_start) / 1e9;
  const double sat_ops = static_cast<double>(supply.size() - light_ops);
  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("records_per_s", sat_s > 0 ? sat_ops / sat_s : 0, "1/s");
  report->Metric("visible_p50_ms", Quantile(visible_ms, 0.5), "ms");
  report->Metric("visible_p90_ms", Quantile(visible_ms, 0.9), "ms");
  report->Metric("delivered_p50_ms", Quantile(delivered_ms, 0.5), "ms");
  report->Metric("delivered_p90_ms", Quantile(delivered_ms, 0.9), "ms");
  report->Metric("read_ops_per_s", Median(read_rates), "1/s");

  // ----------------------------------------------------------- checks
  const stream::IngestStats stats = driver.stats();
  if (stats.ops_rejected + stats.ops_ignored > 0) {
    report->Failed("driver rejected or ignored ops",
                   stats.ops_rejected + stats.ops_ignored);
  }
  for (const std::string& e : sink.errors()) report->CheckFailed("replica: " + e);
  const api::SessionView final_view = driver.View();
  OneShot oneshot;
  const bool ran = CheckFinalState(final_view, stack.data->plan, model,
                                   sink.pairs(), sink.kept(), sizes,
                                   args.seed, report, &oneshot);
  const Quality q =
      ComputeQuality(oneshot.corpus, final_view.Matches().pairs());
  report->Metric("precision", q.precision, "ratio");
  report->Metric("recall", q.recall, "ratio");
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");

  // ------------------------------------------------------ per-layer
  ReportSetupLayers(setup_times, report);
  report->Metric("api.session.bulk_load_s", Median(bulk_s), "s");
  std::vector<double> flush_ms;
  for (const auto& r : light_reports) {
    flush_ms.push_back((r.index_seconds + r.match_seconds + r.cluster_seconds) *
                       1e3);
  }
  ReportFlushLayers(light_reports, flush_ms, report);
  report->Metric("stream.enqueue_us", Median(enqueue_us), "us");
  report->Metric("stream.visible_ms", Median(visible_ms), "ms");
  report->Metric("stream.deliver_ms", Median(deliver_ms), "ms");
  report->Metric("load.late_p90_ms", Quantile(late_ms, 0.9), "ms");
  const size_t sat_flushes = after_sat.flushes - after_light.flushes;
  report->Metric("stream.sat_ops_per_flush",
                 sat_flushes > 0 ? sat_ops / static_cast<double>(sat_flushes)
                                 : 0,
                 "count");
  if (ran) ReportExecutorLayers({oneshot.sample}, report);
  if (!args.trace) return 0;

  report->Metric("stream.diff_ms", Median(diff_ms), "ms");
  report->Metric("stream.queue_depth", Median(depths), "count");
  ReportSimKernels(*stack.data->plan, oneshot.corpus, oneshot.candidates,
                   sizes.sim_sample_pairs, args.seed, report);
  return 0;
}

}  // namespace mdmatch::perfbench
