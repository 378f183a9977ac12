#ifndef MDMATCH_PERFBENCH_HARNESS_H_
#define MDMATCH_PERFBENCH_HARNESS_H_

// Shared pieces of the end-to-end benchmark: arguments, the result
// report, in-memory tracing, the Exp-2/3 plan recipe, and the reference
// checks every workload runs on its outputs. Only library headers under
// src/ are included; nothing here reaches into the library's internals.

#include <atomic>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/plan.h"
#include "api/session.h"
#include "datagen/credit_billing.h"
#include "match/clustering.h"
#include "match/match_result.h"
#include "schema/instance.h"
#include "stream/delta.h"
#include "util/status.h"
#include "util/thread_annotations.h"

namespace mdmatch::perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  /// Toy-size inputs with every check on: the benchmark's own test.
  bool quick = false;
  /// Where a traced run writes its spans (one JSON object per line).
  std::string trace_dir = ".";
};

/// Input sizes of one run: the paper-scale default or the quick toy size.
struct Sizes {
  size_t num_base = 20000;  ///< K base tuples per relation (~72k records)
  size_t setups = 3;        ///< set-ups per run, median reported
  size_t wave_ops = 256;
  size_t min_waves = 64;  ///< churn: quality is read after this wave
  size_t reader_ids = 4096;  ///< per side; updated but never removed
  double light_spacing_ms = 50;
  size_t sat_supply = 57600;  ///< stream: inserts offered at saturation
  size_t growth_waves = 24;
  size_t sim_sample_pairs = 4096;
  size_t reference_negatives = 20000;
};
Sizes SizesFor(const Args& args);

/// \brief Collects the run's metrics, operation counts and check verdicts
/// and prints the final JSON line.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Records a failed correctness check (the run's `correct` turns false).
  void CheckFailed(const std::string& what);
  /// Records `ok` as a check outcome; returns it.
  bool Check(bool ok, const std::string& what);
  void Attempted(size_t n = 1) { attempted_.fetch_add(n); }
  /// An operation that returned an error or an unexpected NotFound.
  void Failed(const std::string& what, size_t n = 1);
  bool correct() const { return checks_failed_ == 0; }
  /// Prints the summary lines and the final JSON object on stdout. The
  /// JSON carries the metrics named in `final_names` (absent per-layer
  /// ones read 0: the workload never enters that layer); every other
  /// metric goes on a line of its own before it.
  void Print(const std::vector<std::pair<std::string, std::string>>&
                 final_names) const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::atomic<size_t> attempted_{0};
  std::atomic<size_t> failed_{0};
  size_t checks_passed_ = 0;
  size_t checks_failed_ = 0;
  mutable util::Mutex mu_;
  std::vector<std::string> failures_ GUARDED_BY(mu_);
};

/// \brief In-memory span recorder: spans are kept until the run ends and
/// are then written out. Disabled unless the run is traced, in which case
/// ScopedSpan costs two clock reads and one append.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = -1;  ///< enclosing span on the same thread, or -1
    uint64_t op = 0;      ///< op, wave or generation id
    uint64_t count = 1;   ///< calls the span covers (timed loops)
    double DurationNs() const { return static_cast<double>(end_ns - start_ns); }
  };

  static Tracer& Get();
  static int64_t NowNs();
  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }
  int64_t Begin(const char* name, uint64_t op, int64_t* parent_out);
  void End(int64_t index, uint64_t count);
  std::vector<Span> Spans(const std::string& name) const;
  /// Median duration of the named spans divided by their call count;
  /// 0 when there is none.
  double MedianNsPerCall(const std::string& name) const;
  Status Write(const std::string& path) const;

 private:
  bool enabled_ = false;
  mutable util::Mutex mu_;
  std::vector<Span> spans_ GUARDED_BY(mu_);
};

/// Span around one public call; inert when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, uint64_t op = 0);
  ~ScopedSpan();
  void set_count(uint64_t count) { count_ = count; }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  int64_t index_ = -1;
  int64_t parent_ = -1;
  uint64_t count_ = 1;
};

// ------------------------------------------------------------ statistics

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double PeakRssMb();

// ---------------------------------------------------------- plan recipe

/// What building the experiment plan cost, per step.
struct SetupTimes {
  double generate_s = 0;
  double deduce_s = 0;
  double compile_s = 0;  ///< PlanBuilder::Build, training included
  double train_s = 0;    ///< FS EM training inside Build
};

/// The Exp-2/3 recipe (Section 6.2): findRCKs with m = 10, the top-5
/// RCKs (cheapest conjunct first) relaxed to θ-DL 0.8 for rule plans,
/// and the shared standard windowing keys. A copy kept here so that
/// edits to the figure benches cannot change what this benchmark runs.
Result<api::PlanPtr> CompileExperimentPlan(
    const datagen::CreditBillingData& data, sim::SimOpRegistry* ops,
    api::PlanOptions::Matcher matcher, SetupTimes* times);

/// Generates the credit/billing instance of the run and its plan.
struct Dataset {
  sim::SimOpRegistry ops;
  datagen::CreditBillingData data;
  api::PlanPtr plan;
  SetupTimes times;
};
Status BuildDataset(size_t num_base, uint64_t seed,
                    api::PlanOptions::Matcher matcher, Dataset* out);

// -------------------------------------------------------- fingerprints

uint64_t FingerprintTuple(uint64_t hash, int side, const Tuple& tuple);
uint64_t FingerprintInstance(const Instance& instance);

// ------------------------------------------------------ reference checks

using IdKey = std::pair<int, TupleId>;
using IdPairSet = std::set<std::pair<TupleId, TupleId>>;

/// The plan's decision for one pair, recomputed from its rules (or its FS
/// weights and threshold) through sim operators, not the compiled
/// evaluator.
bool ReferenceDecision(const api::MatchPlan& plan, const Tuple& left,
                       const Tuple& right);

/// Every match must pass the reference decision; `negatives` (unmatched
/// candidate pairs) must all fail it. Positions index `corpus`.
bool CheckDecisions(const api::MatchPlan& plan, const Instance& corpus,
                    const std::vector<std::pair<uint32_t, uint32_t>>& matches,
                    const std::vector<std::pair<uint32_t, uint32_t>>& negatives,
                    std::string* why);

/// A seeded sample of candidate pairs that are not matches.
std::vector<std::pair<uint32_t, uint32_t>> SampleNegatives(
    const match::CandidateSet& candidates, const match::MatchResult& matches,
    size_t max_pairs, uint64_t seed);

/// Handle per record, as reported by a ClusterOf-style lookup.
using HandleMap = std::map<IdKey, uint64_t>;

/// The partition of `handles` must equal the connected components of the
/// union-find over `matches` (positions in `corpus`).
bool CheckPartition(const Instance& corpus,
                    const std::vector<std::pair<uint32_t, uint32_t>>& matches,
                    const HandleMap& handles, std::string* why);

/// Every live record of the benchmark's model must be in `corpus` with
/// the same values, and nothing else.
bool CheckCorpus(const std::map<IdKey, Tuple>& model, const Instance& corpus,
                 std::string* why);

/// Matches by record id.
IdPairSet IdPairs(const Instance& corpus,
                  const std::vector<std::pair<uint32_t, uint32_t>>& matches);

/// Canonical forms for bit-identity checks against one-shot execution.
std::vector<std::pair<uint32_t, uint32_t>> SortedPairs(
    const match::PairSet& set);
std::vector<std::vector<std::pair<int, uint32_t>>> CanonicalClusters(
    const match::Clustering& clustering);

struct Quality {
  double precision = 0;
  double recall = 0;
};
/// Precision and recall of `matches` against the generator's entity ids.
Quality ComputeQuality(const Instance& corpus,
                       const std::vector<std::pair<uint32_t, uint32_t>>& matches);

/// \brief The benchmark's own strict replica of a delivered delta stream:
/// rejects a gap, a double add and a phantom retire.
class StrictReplica {
 public:
  Status Apply(const stream::MatchDelta& delta);
  uint64_t generation() const { return generation_; }
  const IdPairSet& pairs() const { return pairs_; }

 private:
  uint64_t generation_ = 0;
  IdPairSet pairs_;
};

/// Checks a pinned view: its ClusterOf partition against the union-find
/// over its Matches(), and SameCluster against handle equality on a
/// seeded sample of record pairs. Fills `handles` on the way.
void CheckView(const api::SessionView& view, uint64_t seed,
               HandleMap* handles, Report* report);

/// Shows that each check rejects a corrupted copy of a result: one false
/// pair added to the matches, one delta dropped from the stream, one
/// record moved to another cluster handle.
/// `deltas` holds at least three consecutive deltas of a stream, or none
/// when the workload delivers no stream.
void SelfTest(const api::MatchPlan& plan, const Instance& corpus,
              const std::vector<std::pair<uint32_t, uint32_t>>& matches,
              const HandleMap& handles,
              const std::vector<stream::MatchDelta>& deltas, Report* report);

}  // namespace mdmatch::perfbench

#endif  // MDMATCH_PERFBENCH_HARNESS_H_
