// Pieces the three workloads share: the record split, the run header, the
// final-state checks of the session workloads, and the per-layer metrics
// that come from set-up, from session flush reports, from Executor runs
// and from sim kernel replays.

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "sim/edit_distance.h"
#include "sim/phonetic.h"
#include "workloads.h"

namespace mdmatch::perfbench {

Split SplitRecords(const Instance& instance, uint64_t seed) {
  Split split;
  Rng rng(seed ^ 0x5eed5b1175ULL);
  for (int side = 0; side < 2; ++side) {
    std::vector<uint32_t> order(instance.side(side).size());
    std::iota(order.begin(), order.end(), 0u);
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.Index(i)]);
    }
    const size_t standing = order.size() * 8 / 10;
    split.standing[side].assign(order.begin(), order.begin() + standing);
    split.held_back[side].assign(order.begin() + standing, order.end());
  }
  return split;
}

void PrintHeader(const Args& args, uint64_t fingerprint,
                 const std::string& threads, const std::string& inputs) {
  std::printf("workload: %s%s\n", args.workload.c_str(),
              args.quick ? " (quick)" : "");
  std::printf("seed: %llu\n", static_cast<unsigned long long>(args.seed));
  std::printf("threads: %s\n", threads.c_str());
  std::printf("inputs: %s\n", inputs.c_str());
  std::printf("fingerprint: %016llx\n",
              static_cast<unsigned long long>(fingerprint));
  std::fflush(stdout);
}

bool CheckFinalState(const api::SessionView& view, const api::PlanPtr& plan,
                     const std::map<IdKey, Tuple>& model,
                     const IdPairSet& replica_pairs,
                     const std::vector<stream::MatchDelta>& deltas,
                     const Sizes& sizes, uint64_t seed, Report* report,
                     OneShot* out) {
  out->corpus = view.Corpus();
  const Instance& corpus = out->corpus;
  const match::MatchResult matches = view.Matches();
  std::string why;
  report->Check(CheckCorpus(model, corpus, &why),
                "Corpus() equals the model of the live corpus: " + why);

  Stopwatch watch;
  auto oneshot = [&] {
    ScopedSpan span("api.Executor.Run");
    return api::Executor(plan).Run(corpus);
  }();
  out->sample.run_s = watch.ElapsedSeconds();
  if (!oneshot.ok()) {
    report->CheckFailed("Executor::Run: " + oneshot.status().ToString());
    return false;
  }
  watch.Reset();
  const match::Clustering clusters = [&] {
    ScopedSpan span("match.ClusterMatches");
    return match::ClusterMatches(oneshot->matches, corpus);
  }();
  out->sample.cluster_s = watch.ElapsedSeconds();
  out->sample.window_s = oneshot->timings.candidate_seconds;
  out->sample.eval_s = oneshot->timings.match_seconds;
  out->sample.pairs = static_cast<double>(oneshot->candidates.size());
  out->sample.pairs_compared = static_cast<double>(oneshot->pairs_compared);
  out->sample.reduction_ratio = oneshot->candidate_quality.reduction_ratio;
  out->sample.pairs_completeness =
      oneshot->candidate_quality.pairs_completeness;

  report->Check(SortedPairs(matches) == SortedPairs(oneshot->matches),
                "Matches() equals one-shot Executor::Run over Corpus()");
  report->Check(
      CanonicalClusters(view.Clusters()) == CanonicalClusters(clusters),
      "Clusters() equals one-shot clustering over Corpus()");
  report->Check(
      CheckDecisions(*plan, corpus, matches.pairs(),
                     SampleNegatives(oneshot->candidates, oneshot->matches,
                                     sizes.reference_negatives, seed),
                     &why),
      "reference re-decision: " + why);
  HandleMap handles;
  CheckView(view, seed, &handles, report);
  report->Check(replica_pairs == IdPairs(corpus, matches.pairs()),
                "delta replica equals the final matches by id");
  SelfTest(*plan, corpus, matches.pairs(), handles, deltas, report);
  out->candidates = std::move(oneshot->candidates);
  return true;
}

void ReportSetupLayers(const std::vector<SetupTimes>& setups,
                       Report* report) {
  std::vector<double> gen, deduce, compile, train;
  for (const SetupTimes& t : setups) {
    gen.push_back(t.generate_s);
    deduce.push_back(t.deduce_s);
    compile.push_back(t.compile_s);
    train.push_back(t.train_s);
  }
  report->Metric("datagen.generate_s", Median(gen), "s");
  report->Metric("core.deduce_s", Median(deduce), "s");
  report->Metric("api.plan.compile_s", Median(compile), "s");
  report->Metric("match.fs_train_s", Median(train), "s");
}

void ReportFlushLayers(const std::vector<api::IngestReport>& flushes,
                       const std::vector<double>& flush_ms, Report* report) {
  std::vector<double> index, merge, scan, eval, rerank, cluster, publish,
      publish_kb, pairs;
  double added = 0, evaluated = 0;
  for (const api::IngestReport& r : flushes) {
    index.push_back((r.index_seconds - r.merge_seconds) * 1e3);
    merge.push_back(r.merge_seconds * 1e3);
    scan.push_back(r.scan_seconds * 1e3);
    eval.push_back(r.eval_seconds * 1e3);
    rerank.push_back(r.rerank_seconds * 1e3);
    cluster.push_back(
        (r.cluster_seconds - r.rerank_seconds - r.publish_seconds) * 1e3);
    publish.push_back(r.publish_seconds * 1e3);
    publish_kb.push_back(static_cast<double>(r.publish_bytes_copied) / 1024);
    pairs.push_back(static_cast<double>(r.pairs_evaluated));
    added += static_cast<double>(r.matches_added);
    evaluated += static_cast<double>(r.pairs_evaluated);
  }
  report->Metric("api.session.flush_ms", Median(flush_ms), "ms");
  report->Metric("api.session.index_ms", Median(index), "ms");
  report->Metric("candidate.merge_ms", Median(merge), "ms");
  report->Metric("candidate.scan_ms", Median(scan), "ms");
  report->Metric("match.eval_ms", Median(eval), "ms");
  report->Metric("api.session.rerank_ms", Median(rerank), "ms");
  report->Metric("api.session.cluster_ms", Median(cluster), "ms");
  report->Metric("api.session.publish_ms", Median(publish), "ms");
  report->Metric("api.session.publish_kb", Median(publish_kb), "KB");
  report->Metric("match.pairs_evaluated", Median(pairs), "count");
  report->Metric("match.useful_ratio", evaluated > 0 ? added / evaluated : 0,
                 "ratio");
}

void ReportExecutorLayers(const std::vector<ExecutorSample>& samples,
                          Report* report) {
  std::vector<double> run, window, eval, cluster, ns_per_pair;
  for (const ExecutorSample& s : samples) {
    run.push_back(s.run_s);
    window.push_back(s.window_s);
    eval.push_back(s.eval_s);
    cluster.push_back(s.cluster_s);
    ns_per_pair.push_back(s.pairs_compared > 0
                              ? s.eval_s * 1e9 / s.pairs_compared
                              : 0);
  }
  report->Metric("api.executor.run_s", Median(run), "s");
  report->Metric("candidate.window_s", Median(window), "s");
  report->Metric("match.eval_s", Median(eval), "s");
  report->Metric("match.cluster_s", Median(cluster), "s");
  report->Metric("match.eval_ns_per_pair", Median(ns_per_pair), "ns");
  if (!samples.empty()) {
    report->Metric("candidate.pairs", samples.front().pairs, "count");
    report->Metric("candidate.reduction_ratio",
                   samples.front().reduction_ratio, "ratio");
    report->Metric("candidate.pairs_completeness",
                   samples.front().pairs_completeness, "ratio");
  }
}

void ReportSimKernels(const api::MatchPlan& plan, const Instance& corpus,
                      const match::CandidateSet& candidates, size_t sample,
                      uint64_t seed, Report* report) {
  // Attribute-value pairs of the target lists over sampled candidates.
  std::vector<std::pair<const std::string*, const std::string*>> values;
  const auto& pairs = candidates.pairs();
  Rng rng(seed ^ 0x51dULL);
  for (size_t i = 0; i < sample && !pairs.empty(); ++i) {
    const auto& [l, r] = pairs[rng.Index(pairs.size())];
    for (size_t a = 0; a < plan.target().size(); ++a) {
      const AttrPair attrs = plan.target().pair_at(a);
      values.emplace_back(&corpus.left().tuple(l).value(attrs.left),
                          &corpus.right().tuple(r).value(attrs.right));
    }
  }
  if (values.empty()) return;
  // Each kernel loops over the sample until it has run for 0.2 s; the
  // per-call time is the median over those passes.
  auto time_kernel = [&](const char* name, auto&& body) {
    uint64_t sink = 0;
    Stopwatch total;
    while (total.ElapsedSeconds() < 0.2) {
      ScopedSpan span(name);
      for (const auto& [a, b] : values) sink += body(*a, *b);
      span.set_count(values.size());
    }
    return sink;
  };
  uint64_t sink = 0;
  sink += time_kernel("sim.DlSimilar", [](const std::string& a,
                                          const std::string& b) {
    return static_cast<uint64_t>(sim::DlSimilar(a, b, 0.8));
  });
  sink += time_kernel("sim.MyersLevenshtein", [](const std::string& a,
                                                 const std::string& b) {
    return static_cast<uint64_t>(sim::MyersLevenshtein(a, b));
  });
  sink += time_kernel("sim.Soundex", [](const std::string& a,
                                        const std::string&) {
    return static_cast<uint64_t>(sim::Soundex(a).size());
  });
  const Tracer& tracer = Tracer::Get();
  report->Metric("sim.dl_ns", tracer.MedianNsPerCall("sim.DlSimilar"), "ns");
  report->Metric("sim.myers_ns", tracer.MedianNsPerCall("sim.MyersLevenshtein"),
                 "ns");
  report->Metric("sim.soundex_ns", tracer.MedianNsPerCall("sim.Soundex"),
                 "ns");
  // Keeps the kernels' results observable.
  if (sink == 0) std::printf("sim kernels returned all zero\n");
}

}  // namespace mdmatch::perfbench
