// batch_window_fs: repeated one-shot Executor::Run (1 thread) followed by
// match::ClusterMatches over the whole instance, Fellegi-Sunter matching
// over windowing candidates.
//
// Why this workload: about half its time is candidate windowing (key
// rendering, radix sort) and half compiled θ-DL/FS evaluation, with no
// session, publish or stream layer: evaluation-kernel work shows here
// first, and session-layer changes should leave it unchanged.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "workloads.h"

namespace mdmatch::perfbench {
namespace {

constexpr size_t kReadLookups = size_t{1} << 22;

/// Lookups per second of `kReadLookups` random cluster lookups.
double ReadClusters(const match::Clustering& clustering,
                    const Instance& instance, Rng* rng, Report* report) {
  size_t failed = 0;
  Stopwatch watch;
  for (size_t i = 0; i < kReadLookups; ++i) {
    const uint8_t side = static_cast<uint8_t>(i & 1);
    const size_t n = instance.side(side).size();
    const match::RecordRef ref{side, static_cast<uint32_t>(rng->Index(n))};
    if (clustering.ClusterOf(ref) >= clustering.num_clusters()) ++failed;
  }
  const double rate = static_cast<double>(kReadLookups) / watch.ElapsedSeconds();
  report->Attempted(kReadLookups);
  if (failed > 0) report->Failed("cluster lookup out of range", failed);
  return rate;
}

}  // namespace

int RunBatch(const Args& args, Report* report) {
  Sizes sizes = SizesFor(args);
  // Set-up here is generation, deduction and FS training only, so it is
  // cheap enough to repeat more often.
  sizes.setups = std::max<size_t>(sizes.setups, 5);

  std::vector<double> setup_s;
  std::vector<SetupTimes> setup_times;
  std::unique_ptr<Dataset> data;
  for (size_t i = 0; i < sizes.setups; ++i) {
    data = std::make_unique<Dataset>();
    Stopwatch watch;
    Status st = BuildDataset(sizes.num_base, args.seed,
                             api::PlanOptions::Matcher::kFellegiSunter,
                             data.get());
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 1;
    }
    setup_s.push_back(watch.ElapsedSeconds());
    setup_times.push_back(data->times);
  }
  const Instance& instance = data->data.instance;
  const size_t records = instance.left().size() + instance.right().size();
  PrintHeader(args, FingerprintInstance(instance), "executor 1",
              "K=" + std::to_string(sizes.num_base) + " records=" +
                  std::to_string(records) + " (whole instance per Run)");

  api::ExecutorOptions options;
  options.num_threads = 1;
  api::Executor executor(data->plan, options);
  std::vector<double> visible_ms, delivered_ms, read_rates;
  std::shared_ptr<const match::Clustering> published;
  Rng rng(args.seed ^ 0x4eadULL);
  std::vector<ExecutorSample> samples;
  std::vector<std::pair<uint32_t, uint32_t>> first_matches;
  std::unique_ptr<api::ExecutionReport> last;
  bool identical = true;
  Stopwatch loop;
  for (uint64_t rep = 0; rep < 3 || loop.ElapsedSeconds() < args.seconds;
       ++rep) {
    Stopwatch watch;
    auto run = [&] {
      ScopedSpan span("api.Executor.Run", rep);
      return executor.Run(instance);
    }();
    const double run_s = watch.ElapsedSeconds();
    report->Attempted();
    if (!run.ok()) {
      report->Failed(run.status().ToString());
      continue;
    }
    Stopwatch cluster_watch;
    auto clustering = [&] {
      ScopedSpan span("match.ClusterMatches", rep);
      return std::make_shared<const match::Clustering>(
          match::ClusterMatches(run->matches, instance));
    }();
    const double cluster_s = cluster_watch.ElapsedSeconds();
    visible_ms.push_back(watch.ElapsedMillis());
    // Delivery: the match set in the stable id encoding a consumer
    // receives.
    std::vector<std::pair<TupleId, TupleId>> by_id;
    by_id.reserve(run->matches.size());
    for (const auto& [l, r] : run->matches.pairs()) {
      by_id.emplace_back(instance.left().tuple(l).id(),
                         instance.right().tuple(r).id());
    }
    std::sort(by_id.begin(), by_id.end());
    delivered_ms.push_back(watch.ElapsedMillis());
    // Reads of the result: cluster lookups on the clustering just built,
    // timed apart from the run so that neither perturbs the other.
    read_rates.push_back(ReadClusters(*clustering, instance, &rng, report));
    published = clustering;

    ExecutorSample s;
    s.run_s = run_s;
    s.window_s = run->timings.candidate_seconds;
    s.eval_s = run->timings.match_seconds;
    s.cluster_s = cluster_s;
    s.pairs = static_cast<double>(run->candidates.size());
    s.pairs_compared = static_cast<double>(run->pairs_compared);
    s.reduction_ratio = run->candidate_quality.reduction_ratio;
    s.pairs_completeness = run->candidate_quality.pairs_completeness;
    samples.push_back(s);
    auto sorted = SortedPairs(run->matches);
    if (first_matches.empty() && rep == 0) {
      first_matches = std::move(sorted);
    } else if (sorted != first_matches) {
      identical = false;
    }
    last = std::make_unique<api::ExecutionReport>(std::move(*run));
  }
  std::printf("repetitions: %zu\n", visible_ms.size());

  report->Metric("setup_s", Median(setup_s), "s");
  report->Metric("records_per_s",
                 static_cast<double>(records) / (Median(visible_ms) / 1e3),
                 "1/s");
  report->Metric("visible_p50_ms", Quantile(visible_ms, 0.5), "ms");
  report->Metric("visible_p90_ms", Quantile(visible_ms, 0.9), "ms");
  report->Metric("delivered_p50_ms", Quantile(delivered_ms, 0.5), "ms");
  report->Metric("delivered_p90_ms", Quantile(delivered_ms, 0.9), "ms");
  report->Metric("read_ops_per_s", Median(read_rates), "1/s");

  // ----------------------------------------------------------- checks
  report->Check(identical && last != nullptr,
                "every repetition returns the identical match set");
  if (last == nullptr) return 0;
  std::string why;
  report->Check(
      CheckDecisions(*data->plan, instance, last->matches.pairs(),
                     SampleNegatives(last->candidates, last->matches,
                                     sizes.reference_negatives, args.seed),
                     &why),
      "reference re-decision: " + why);
  const std::shared_ptr<const match::Clustering>& clustering = published;
  HandleMap handles;
  for (int side = 0; side < 2; ++side) {
    const Relation& rel = instance.side(side);
    for (uint32_t i = 0; i < rel.size(); ++i) {
      handles[{side, rel.tuple(i).id()}] = clustering->ClusterOf(
          match::RecordRef{static_cast<uint8_t>(side), i});
    }
  }
  report->Check(CheckPartition(instance, last->matches.pairs(), handles, &why),
                "ClusterMatches partition equals union-find over matches: " +
                    why);
  SelfTest(*data->plan, instance, last->matches.pairs(), handles, {}, report);
  const Quality q = ComputeQuality(instance, last->matches.pairs());
  report->Metric("precision", q.precision, "ratio");
  report->Metric("recall", q.recall, "ratio");
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");

  // ------------------------------------------------------ per-layer
  ReportSetupLayers(setup_times, report);
  ReportExecutorLayers(samples, report);
  if (!args.trace) return 0;
  ReportSimKernels(*data->plan, instance, last->candidates,
                   sizes.sim_sample_pairs, args.seed, report);
  return 0;
}

}  // namespace mdmatch::perfbench
