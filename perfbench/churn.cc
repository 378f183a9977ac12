// churn_window_rule: synchronous waves of mixed updates, removes and
// inserts against a standing corpus, with one closed-loop reader.
//
// Why this workload: update and remove flushes are where the session pays
// work that grows with the corpus (cluster rebuild, corpus erase and
// renumbering, the re-rank of every standing pair), and where reads must
// stay fast while writes run.

#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "datagen/noise.h"
#include "stream/delta.h"
#include "util/fnv.h"
#include "workloads.h"

namespace mdmatch::perfbench {
namespace {

constexpr size_t kSessionThreads = 2;
constexpr size_t kReadBlock = 16384;
/// Queries per reader request; each request pins the current generation.
constexpr size_t kRequestQueries = 64;

struct Op {
  int side = 0;
  bool remove = false;
  Tuple tuple;  ///< the record to upsert; for a remove only its id counts
};

/// \brief The churn op schedule and the benchmark's own model of the live
/// corpus. Each wave is half in-place updates (one target attribute
/// re-typoed from the record's original value, same entity), a quarter
/// removes, a quarter inserts: held-back records first, then removed
/// records re-inserted under fresh ids. Reader ids are never removed.
class ChurnSchedule {
 public:
  ChurnSchedule(const datagen::CreditBillingData& data, const Split& split,
                size_t reader_ids, size_t wave_ops, uint64_t seed)
      : wave_ops_(wave_ops), rng_(seed ^ 0xc4012ULL) {
    for (int side = 0; side < 2; ++side) {
      const Relation& rel = data.instance.side(side);
      for (uint32_t pos : split.standing[side]) Admit(side, rel.tuple(pos));
      for (size_t i = 0; i < split.standing[side].size() && i < reader_ids;
           ++i) {
        readers_[side].push_back(rel.tuple(split.standing[side][i]).id());
        protected_.insert(Key(side, readers_[side].back()));
      }
      for (uint32_t pos : split.held_back[side]) {
        inserts_[side].push_back(rel.tuple(pos));
      }
      next_id_[side] = static_cast<TupleId>(rel.size());
      targets_[side] = side == 0 ? data.target.left() : data.target.right();
    }
  }

  std::vector<Op> NextWave() {
    std::vector<Op> wave;
    std::unordered_set<uint64_t> touched;
    const size_t updates = wave_ops_ / 2;
    const size_t removes = wave_ops_ / 4;
    const size_t inserts = wave_ops_ - updates - removes;
    for (size_t k = 0; k < updates; ++k) {
      const int side = static_cast<int>(k & 1);
      const TupleId id = PickLive(side, touched, /*removable=*/false);
      const Tuple& original = originals_.at(Key(side, id));
      Tuple updated = original;
      const AttrId attr = targets_[side][rng_.Index(targets_[side].size())];
      updated.set_value(attr, datagen::MakeTypo(&rng_, original.value(attr)));
      live_[{side, id}] = updated;
      wave.push_back({side, false, std::move(updated)});
    }
    for (size_t k = 0; k < removes; ++k) {
      const int side = static_cast<int>(k & 1);
      const TupleId id = PickLive(side, touched, /*removable=*/true);
      Op op{side, true, live_.at({side, id})};
      Retire(side, id);
      wave.push_back(std::move(op));
    }
    for (size_t k = 0; k < inserts; ++k) {
      const int side = static_cast<int>(k & 1);
      Tuple t;
      if (!inserts_[side].empty()) {
        t = inserts_[side].front();
        inserts_[side].pop_front();
      } else {
        const Tuple& removed = removed_[side].front();
        t = Tuple(next_id_[side]++, originals_.at(Key(side, removed.id()))
                                        .values(),
                  removed.entity());
        removed_[side].pop_front();
      }
      Admit(side, t);
      touched.insert(Key(side, t.id()));
      wave.push_back({side, false, std::move(t)});
    }
    return wave;
  }

  const std::map<IdKey, Tuple>& model() const { return live_; }
  const std::vector<TupleId>& reader_ids(int side) const {
    return readers_[side];
  }

 private:
  static uint64_t Key(int side, TupleId id) {
    return (static_cast<uint64_t>(side) << 62) ^ static_cast<uint64_t>(id);
  }

  void Admit(int side, const Tuple& t) {
    live_[{side, t.id()}] = t;
    originals_.emplace(Key(side, t.id()), t);
    slot_[Key(side, t.id())] = ids_[side].size();
    ids_[side].push_back(t.id());
  }

  void Retire(int side, TupleId id) {
    removed_[side].push_back(live_.at({side, id}));
    live_.erase({side, id});
    const size_t slot = slot_.at(Key(side, id));
    slot_.erase(Key(side, id));
    const TupleId last = ids_[side].back();
    ids_[side][slot] = last;
    ids_[side].pop_back();
    if (last != id) slot_[Key(side, last)] = slot;
  }

  TupleId PickLive(int side, std::unordered_set<uint64_t>& touched,
                   bool removable) {
    for (;;) {
      const TupleId id = ids_[side][rng_.Index(ids_[side].size())];
      const uint64_t key = Key(side, id);
      if (touched.count(key) != 0) continue;
      if (removable && protected_.count(key) != 0) continue;
      touched.insert(key);
      return id;
    }
  }

  size_t wave_ops_;
  Rng rng_;
  std::map<IdKey, Tuple> live_;
  std::unordered_map<uint64_t, Tuple> originals_;
  std::unordered_map<uint64_t, size_t> slot_;
  std::vector<TupleId> ids_[2];
  std::vector<TupleId> readers_[2];
  std::unordered_set<uint64_t> protected_;
  std::deque<Tuple> inserts_[2];
  std::deque<Tuple> removed_[2];
  TupleId next_id_[2] = {0, 0};
  std::vector<AttrId> targets_[2];
};

/// Stages one wave.
void StageWave(api::MatchSession& session, const std::vector<Op>& wave,
               uint64_t wave_id, Report* report) {
  for (const Op& op : wave) {
    Status st;
    if (op.remove) {
      ScopedSpan span("api.MatchSession.Remove", wave_id);
      st = session.Remove(op.side, op.tuple.id());
    } else {
      ScopedSpan span("api.MatchSession.Upsert", wave_id);
      st = session.Upsert(op.side, op.tuple);
    }
    report->Attempted();
    if (!st.ok()) report->Failed(st.ToString());
  }
}

/// Bulk-loads the standing records; returns the load time in seconds.
double BulkLoad(api::MatchSession& session, const Instance& instance,
                const Split& split, Report* report) {
  Stopwatch watch;
  ScopedSpan span("api.session.bulk_load");
  for (int side = 0; side < 2; ++side) {
    for (uint32_t pos : split.standing[side]) {
      Status st = session.Upsert(side, instance.side(side).tuple(pos));
      if (!st.ok()) report->Failed(st.ToString());
    }
  }
  auto flushed = session.Flush();
  if (!flushed.ok()) report->Failed(flushed.status().ToString());
  return watch.ElapsedSeconds();
}

/// Runs `waves` churn waves on a fresh session over `data` and returns the
/// per-slice flush reports (the growth replay at a smaller corpus).
std::vector<api::IngestReport> ReplayWaves(const api::PlanPtr& plan,
                                           const datagen::CreditBillingData& data,
                                           const Sizes& sizes, uint64_t seed,
                                           std::vector<double>* flush_ms,
                                           Report* report) {
  const Split split = SplitRecords(data.instance, seed);
  api::SessionOptions options;
  options.num_threads = kSessionThreads;
  api::MatchSession session(plan, options);
  BulkLoad(session, data.instance, split, report);
  ChurnSchedule schedule(data, split, sizes.reader_ids, sizes.wave_ops, seed);
  std::vector<api::IngestReport> out;
  for (size_t w = 0; w < sizes.growth_waves; ++w) {
    const std::vector<Op> wave = schedule.NextWave();
    StageWave(session, wave, w, report);
    Stopwatch watch;
    auto flushed = session.Flush();
    flush_ms->push_back(watch.ElapsedMillis());
    if (!flushed.ok()) {
      report->Failed(flushed.status().ToString());
      continue;
    }
    out.push_back(*flushed);
  }
  return out;
}

}  // namespace

int RunChurn(const Args& args, Report* report) {
  const Sizes sizes = SizesFor(args);

  // Set-up, several times; the last one is kept for the measured phase.
  std::vector<double> setup_s, bulk_s;
  std::vector<SetupTimes> setup_times;
  std::unique_ptr<Dataset> data;
  std::unique_ptr<api::MatchSession> session;
  Split split;
  for (size_t i = 0; i < sizes.setups; ++i) {
    session.reset();
    data = std::make_unique<Dataset>();
    Stopwatch watch;
    Status st = BuildDataset(sizes.num_base, args.seed,
                             api::PlanOptions::Matcher::kRuleBased, data.get());
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    split = SplitRecords(data->data.instance, args.seed);
    api::SessionOptions options;
    options.num_threads = kSessionThreads;
    session = std::make_unique<api::MatchSession>(data->plan, options);
    bulk_s.push_back(BulkLoad(*session, data->data.instance, split, report));
    setup_s.push_back(watch.ElapsedSeconds());
    setup_times.push_back(data->times);
  }

  ChurnSchedule schedule(data->data, split, sizes.reader_ids, sizes.wave_ops,
                         args.seed);
  uint64_t fingerprint = FingerprintInstance(data->data.instance);
  {
    // The op schedule's first waves, from a twin of the schedule.
    ChurnSchedule twin(data->data, split, sizes.reader_ids, sizes.wave_ops,
                       args.seed);
    for (size_t w = 0; w < sizes.min_waves; ++w) {
      for (const Op& op : twin.NextWave()) {
        fingerprint = FnvMixU64(fingerprint, op.remove ? 1 : 0);
        fingerprint = FingerprintTuple(fingerprint, op.side, op.tuple);
      }
    }
  }
  PrintHeader(args, fingerprint,
              "session " + std::to_string(kSessionThreads) + ", reader 1",
              "K=" + std::to_string(sizes.num_base) + " standing=" +
                  std::to_string(split.standing[0].size() +
                                 split.standing[1].size()) +
                  " wave=" + std::to_string(sizes.wave_ops) +
                  " (50% update, 25% remove, 25% insert) reader_ids=" +
                  std::to_string(sizes.reader_ids) + "/side");

  // The reader: ClusterOf and SameCluster on ids churn never removes.
  std::atomic<bool> stop{false};
  std::vector<double> read_rates;
  std::thread reader([&] {
    const std::vector<TupleId>* ids[2] = {&schedule.reader_ids(0),
                                          &schedule.reader_ids(1)};
    std::optional<api::SessionView> view;
    read_rates = ReadBlocks(
        stop, kReadBlock, args.seed ^ 0x4eadULL,
        [&](Rng* rng, size_t i) {
          if (i % kRequestQueries == 0) view = session->View();
          const int side = static_cast<int>(i & 1);
          const TupleId id = (*ids[side])[rng->Index(ids[side]->size())];
          if ((i & 3) == 3) {
            const TupleId other =
                (*ids[1 - side])[rng->Index(ids[1 - side]->size())];
            return view->SameCluster(side, id, 1 - side, other).ok();
          }
          return view->ClusterOf(side, id).ok();
        },
        report);
  });

  // The wave loop: stage, flush (visible), diff into the replica
  // (delivered).
  StrictReplica replica;
  api::SessionView prev = session->View();
  if (!replica.Apply(stream::FullStateDelta(*prev.state())).ok()) {
    report->CheckFailed("replica rejects the initial snapshot");
  }
  std::vector<stream::MatchDelta> first_deltas;
  std::vector<double> visible_ms, delivered_ms, flush_ms, diff_ms;
  std::vector<api::IngestReport> flushes;
  std::unique_ptr<api::SessionView> quality_view;
  double busy_s = 0;
  size_t ops_applied = 0;
  Stopwatch loop;
  for (uint64_t w = 0;; ++w) {
    if (w >= sizes.min_waves && loop.ElapsedSeconds() >= args.seconds) break;
    const std::vector<Op> wave = schedule.NextWave();
    ScopedSpan wave_span("churn.wave", w);
    Stopwatch watch;
    StageWave(*session, wave, w, report);
    Stopwatch flush_watch;
    Result<api::IngestReport> flushed = [&] {
      ScopedSpan span("api.MatchSession.Flush", w);
      return session->Flush();
    }();
    const double visible = watch.ElapsedMillis();
    const double flush = flush_watch.ElapsedMillis();
    report->Attempted();
    if (!flushed.ok()) {
      report->Failed(flushed.status().ToString());
      continue;
    }
    api::SessionView cur = session->View();
    Stopwatch diff_watch;
    stream::MatchDelta delta = [&] {
      ScopedSpan span("stream.GenerationDiff", w);
      return stream::GenerationDiff(*prev.state(), *cur.state());
    }();
    diff_ms.push_back(diff_watch.ElapsedMillis());
    Status applied = replica.Apply(delta);
    const double delivered = watch.ElapsedMillis();
    if (!applied.ok()) {
      report->CheckFailed("replica: " + applied.ToString());
    }
    if (first_deltas.size() < 3) first_deltas.push_back(std::move(delta));
    busy_s += visible / 1e3;
    ops_applied += wave.size();
    visible_ms.push_back(visible);
    delivered_ms.push_back(delivered);
    flush_ms.push_back(flush);
    flushes.push_back(*flushed);
    prev = std::move(cur);
    if (w + 1 == sizes.min_waves) {
      quality_view = std::make_unique<api::SessionView>(prev);
    }
  }
  stop.store(true);
  reader.join();
  const size_t waves = visible_ms.size();
  std::printf("waves: %zu, ops applied: %zu\n", waves, ops_applied);

  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("records_per_s",
                 busy_s > 0 ? static_cast<double>(ops_applied) / busy_s : 0,
                 "1/s");
  report->Metric("visible_p50_ms", Quantile(visible_ms, 0.5), "ms");
  report->Metric("visible_p90_ms", Quantile(visible_ms, 0.9), "ms");
  report->Metric("delivered_p50_ms", Quantile(delivered_ms, 0.5), "ms");
  report->Metric("delivered_p90_ms", Quantile(delivered_ms, 0.9), "ms");
  report->Metric("read_ops_per_s", Median(read_rates), "1/s");

  // ----------------------------------------------------------- checks
  OneShot oneshot;
  const bool ran =
      CheckFinalState(session->View(), data->plan, schedule.model(),
                      replica.pairs(), first_deltas, sizes, args.seed, report,
                      &oneshot);

  if (quality_view) {
    const Instance q_corpus = quality_view->Corpus();
    const Quality q = ComputeQuality(q_corpus, quality_view->Matches().pairs());
    report->Metric("precision", q.precision, "ratio");
    report->Metric("recall", q.recall, "ratio");
  }
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");

  // ------------------------------------------------------ per-layer
  ReportSetupLayers(setup_times, report);
  report->Metric("api.session.bulk_load_s", Median(bulk_s), "s");
  ReportFlushLayers(flushes, flush_ms, report);
  report->Metric("stream.diff_ms", Median(diff_ms), "ms");
  if (ran) ReportExecutorLayers({oneshot.sample}, report);
  if (!args.trace) return 0;

  Tracer& tracer = Tracer::Get();
  std::vector<double> stage_us;
  for (const char* name :
       {"api.MatchSession.Upsert", "api.MatchSession.Remove"}) {
    for (const auto& s : tracer.Spans(name)) stage_us.push_back(s.DurationNs() / 1e3);
  }
  report->Metric("api.session.stage_us", Median(stage_us), "us");

  // View pin and lookup cost, replayed on the final session.
  {
    const auto& ids = schedule.reader_ids(0);
    Rng rng(args.seed);
    uint64_t sink = 0;
    for (int pass = 0; pass < 64; ++pass) {
      ScopedSpan span("api.MatchSession.View");
      for (size_t i = 0; i < 1024; ++i) sink += session->View().generation();
      span.set_count(1024);
    }
    const api::SessionView view = session->View();
    for (int pass = 0; pass < 64; ++pass) {
      ScopedSpan span("api.SessionView.lookup");
      for (size_t i = 0; i < 1024; ++i) {
        const TupleId id = ids[rng.Index(ids.size())];
        if (i & 1) {
          auto h = view.ClusterOf(0, id);
          sink += h.ok() ? *h : 0;
        } else {
          auto same = view.SameCluster(0, id, 0, ids[rng.Index(ids.size())]);
          sink += same.ok() && *same ? 1 : 0;
        }
      }
      span.set_count(1024);
    }
    report->Metric("api.view.pin_ns", tracer.MedianNsPerCall("api.MatchSession.View"), "ns");
    report->Metric("api.view.lookup_ns",
                   tracer.MedianNsPerCall("api.SessionView.lookup"), "ns");
    if (sink == 0) std::printf("view replay read nothing\n");
  }

  // Growth with corpus size: the same wave mix at a quarter of the corpus.
  {
    Dataset small;
    Status st = BuildDataset(sizes.num_base / 4, args.seed,
                             api::PlanOptions::Matcher::kRuleBased, &small);
    if (!st.ok()) {
      report->CheckFailed("growth replay set-up: " + st.ToString());
    } else {
      std::vector<double> small_flush_ms;
      const std::vector<api::IngestReport> small_flushes = ReplayWaves(
          data->plan, small.data, sizes, args.seed, &small_flush_ms, report);
      auto ratio = [](double big, double little) {
        return little > 0 ? big / little : 0;
      };
      auto p50 = [](const std::vector<api::IngestReport>& rs, auto&& slice) {
        std::vector<double> v;
        for (const auto& r : rs) v.push_back(slice(r));
        return Median(std::move(v));
      };
      struct Slice {
        const char* name;
        double (*get)(const api::IngestReport&);
      };
      const Slice slices[] = {
          {"api.session.index_growth_4x",
           [](const api::IngestReport& r) {
             return r.index_seconds - r.merge_seconds;
           }},
          {"candidate.merge_growth_4x",
           [](const api::IngestReport& r) { return r.merge_seconds; }},
          {"candidate.scan_growth_4x",
           [](const api::IngestReport& r) { return r.scan_seconds; }},
          {"match.eval_growth_4x",
           [](const api::IngestReport& r) { return r.eval_seconds; }},
          {"api.session.rerank_growth_4x",
           [](const api::IngestReport& r) { return r.rerank_seconds; }},
          {"api.session.cluster_growth_4x",
           [](const api::IngestReport& r) {
             return r.cluster_seconds - r.rerank_seconds - r.publish_seconds;
           }},
          {"api.session.publish_growth_4x",
           [](const api::IngestReport& r) { return r.publish_seconds; }},
      };
      for (const Slice& s : slices) {
        report->Metric(s.name,
                       ratio(p50(flushes, s.get), p50(small_flushes, s.get)),
                       "ratio");
      }
      report->Metric("api.session.flush_growth_4x",
                     ratio(Median(flush_ms), Median(small_flush_ms)), "ratio");
    }
  }

  ReportSimKernels(*data->plan, oneshot.corpus, oneshot.candidates,
                   sizes.sim_sample_pairs, args.seed, report);
  return 0;
}

}  // namespace mdmatch::perfbench
