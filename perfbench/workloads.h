#ifndef MDMATCH_PERFBENCH_WORKLOADS_H_
#define MDMATCH_PERFBENCH_WORKLOADS_H_

// The three workloads, and the measurement pieces they share. Each
// workload reports its end-to-end metrics on every run and its per-layer
// metrics on a traced run (Args::trace); the README maps each per-layer
// metric to the end-to-end metric it should move.

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "api/executor.h"
#include "harness.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace mdmatch::perfbench {

/// Records per side split into the standing corpus (bulk-loaded during
/// set-up) and the held-back records later inserts draw from; a seeded
/// shuffle, 80% standing.
struct Split {
  std::vector<uint32_t> standing[2];
  std::vector<uint32_t> held_back[2];
};
Split SplitRecords(const Instance& instance, uint64_t seed);

/// Prints the run header: workload, seed, threads, sizes, fingerprint.
void PrintHeader(const Args& args, uint64_t fingerprint,
                 const std::string& threads, const std::string& inputs);

/// Per-layer metrics of one Executor::Run + ClusterMatches.
struct ExecutorSample {
  double run_s = 0;
  double window_s = 0;
  double eval_s = 0;
  double cluster_s = 0;
  double pairs = 0;
  double pairs_compared = 0;
  double reduction_ratio = 0;
  double pairs_completeness = 0;
};
void ReportExecutorLayers(const std::vector<ExecutorSample>& samples,
                          Report* report);

/// sim kernel cost per call over the attribute values of a seeded sample
/// of candidate pairs (traced runs only).
void ReportSimKernels(const api::MatchPlan& plan, const Instance& corpus,
                      const match::CandidateSet& candidates, size_t sample,
                      uint64_t seed, Report* report);

/// Set-up step times shared by every workload.
void ReportSetupLayers(const std::vector<SetupTimes>& setups, Report* report);

/// \brief A closed-loop reader: issues `query` in fixed-size blocks until
/// `stop` is set and keeps each block's rate. A failed query counts as a
/// failed operation.
template <typename Query>
std::vector<double> ReadBlocks(const std::atomic<bool>& stop, size_t block,
                               uint64_t seed, Query&& query, Report* report) {
  Rng rng(seed);
  std::vector<double> rates;
  while (!stop.load(std::memory_order_relaxed)) {
    size_t failed = 0;
    Stopwatch watch;
    for (size_t i = 0; i < block; ++i) {
      if (!query(&rng, i)) ++failed;
    }
    rates.push_back(static_cast<double>(block) / watch.ElapsedSeconds());
    report->Attempted(block);
    if (failed > 0) report->Failed("reader query", failed);
  }
  return rates;
}

/// What the final one-shot check run of a session workload produced.
struct OneShot {
  Instance corpus;
  match::CandidateSet candidates;
  ExecutorSample sample;
};

/// The checks churn and stream share on their final session state: the
/// model equals Corpus(); Matches() and Clusters() equal one-shot
/// Executor::Run + ClusterMatches over Corpus(); the reference
/// re-decision; the view checks; the delta replica equals the matches by
/// id; and the self-test. False when the one-shot run itself failed.
bool CheckFinalState(const api::SessionView& view, const api::PlanPtr& plan,
                     const std::map<IdKey, Tuple>& model,
                     const IdPairSet& replica_pairs,
                     const std::vector<stream::MatchDelta>& deltas,
                     const Sizes& sizes, uint64_t seed, Report* report,
                     OneShot* out);

/// Session-flush slices of a set of flushes, as per-layer metrics.
void ReportFlushLayers(const std::vector<api::IngestReport>& flushes,
                       const std::vector<double>& flush_ms, Report* report);

int RunChurn(const Args& args, Report* report);
int RunStream(const Args& args, Report* report);
int RunBatch(const Args& args, Report* report);

}  // namespace mdmatch::perfbench

#endif  // MDMATCH_PERFBENCH_WORKLOADS_H_
