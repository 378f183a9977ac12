#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "core/find_rcks.h"
#include "core/quality.h"
#include "match/comparison.h"
#include "match/hs_rules.h"
#include "util/fnv.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace mdmatch::perfbench {

Sizes SizesFor(const Args& args) {
  Sizes s;
  if (args.quick) {
    s.num_base = 600;
    s.setups = 2;
    s.wave_ops = 64;
    s.min_waves = 8;
    s.reader_ids = 64;
    s.light_spacing_ms = 20;
    s.sat_supply = 600;
    s.growth_waves = 6;
    s.sim_sample_pairs = 256;
    s.reference_negatives = 2000;
  }
  return s;
}

// --------------------------------------------------------------- Report

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    CheckFailed("metric " + name + " is not finite");
    value = 0;
  }
  metrics_[name] = {value, unit};
}

void Report::CheckFailed(const std::string& what) {
  ++checks_failed_;
  util::MutexLock lock(mu_);
  failures_.push_back("check failed: " + what);
}

bool Report::Check(bool ok, const std::string& what) {
  if (ok) {
    ++checks_passed_;
  } else {
    CheckFailed(what);
  }
  return ok;
}

void Report::Failed(const std::string& what, size_t n) {
  failed_.fetch_add(n);
  util::MutexLock lock(mu_);
  if (failures_.size() < 32) failures_.push_back("op failed: " + what);
}

void Report::Print(const std::vector<std::pair<std::string, std::string>>&
                       final_names) const {
  {
    util::MutexLock lock(mu_);
    for (const auto& f : failures_) std::printf("%s\n", f.c_str());
  }
  std::printf("checks: %zu passed, %zu failed\n", checks_passed_,
              checks_failed_);
  std::printf("ops: %zu attempted, %zu failed\n", attempted_.load(),
              failed_.load());
  std::map<std::string, std::pair<double, std::string>> final_metrics;
  for (const auto& [name, unit] : final_names) {
    auto it = metrics_.find(name);
    final_metrics[name] =
        it != metrics_.end() ? it->second : std::make_pair(0.0, unit);
  }
  auto print_metrics = [](const auto& metrics) {
    bool first = true;
    for (const auto& [name, vu] : metrics) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", name.c_str(), vu.first,
                  vu.second.c_str());
      first = false;
    }
  };
  std::map<std::string, std::pair<double, std::string>> others;
  for (const auto& [name, vu] : metrics_) {
    if (final_metrics.count(name) == 0) others[name] = vu;
  }
  std::printf("other metrics: {");
  print_metrics(others);
  std::printf("}\n");
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct() ? "true" : "false",
              std::max<size_t>(1, attempted_.load()), failed_.load());
  print_metrics(final_metrics);
  std::printf("}}\n");
  std::fflush(stdout);
}

// --------------------------------------------------------------- Tracer

namespace {
thread_local int64_t current_span = -1;
}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

int64_t Tracer::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t Tracer::Begin(const char* name, uint64_t op, int64_t* parent_out) {
  Span span;
  span.name = name;
  span.op = op;
  span.parent = current_span;
  *parent_out = current_span;
  int64_t index = 0;
  {
    util::MutexLock lock(mu_);
    index = static_cast<int64_t>(spans_.size());
    spans_.push_back(span);
  }
  current_span = index;
  const int64_t now = NowNs();
  util::MutexLock lock(mu_);
  spans_[static_cast<size_t>(index)].start_ns = now;
  return index;
}

void Tracer::End(int64_t index, uint64_t count) {
  const int64_t now = NowNs();
  util::MutexLock lock(mu_);
  Span& span = spans_[static_cast<size_t>(index)];
  span.end_ns = now;
  span.count = count;
  current_span = span.parent;
}

std::vector<Tracer::Span> Tracer::Spans(const std::string& name) const {
  std::vector<Span> out;
  util::MutexLock lock(mu_);
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(s);
  }
  return out;
}

double Tracer::MedianNsPerCall(const std::string& name) const {
  std::vector<double> per_call;
  for (const Span& s : Spans(name)) {
    per_call.push_back(s.DurationNs() /
                       static_cast<double>(std::max<uint64_t>(1, s.count)));
  }
  return Median(std::move(per_call));
}

Status Tracer::Write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::Internal("cannot write " + path);
  util::MutexLock lock(mu_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << ", \"op\": " << s.op
        << ", \"count\": " << s.count << "}\n";
  }
  return out ? Status::OK() : Status::Internal("short write to " + path);
}

ScopedSpan::ScopedSpan(const char* name, uint64_t op) {
  Tracer& tracer = Tracer::Get();
  if (tracer.enabled()) index_ = tracer.Begin(name, op, &parent_);
}

ScopedSpan::~ScopedSpan() {
  if (index_ >= 0) Tracer::Get().End(index_, count_);
}

// ----------------------------------------------------------- statistics

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------- plan recipe

Result<api::PlanPtr> CompileExperimentPlan(
    const datagen::CreditBillingData& data, sim::SimOpRegistry* ops,
    api::PlanOptions::Matcher matcher, SetupTimes* times) {
  api::PlanOptions options;
  options.matcher = matcher;

  // findRCKs with the quality model of Section 5: lengths estimated from
  // the data and the default accuracy profile installed.
  Stopwatch watch;
  QualityModel quality{1.0, 0.05, 3.0};
  quality.EstimateLengthsFromData(data.instance, data.mds, data.target);
  datagen::ApplyDefaultAccuracies(data.pair, data.target, &quality);
  FindRcksOptions rck_options;
  rck_options.m = options.num_rcks;
  std::vector<RelativeKey> rcks;
  {
    ScopedSpan span("core.FindRcks");
    rcks = FindRcks(data.pair, *ops, data.mds, data.target, rck_options,
                    &quality)
               .rcks;
  }
  times->deduce_s = watch.ElapsedSeconds();

  watch.Reset();
  ScopedSpan span("api.PlanBuilder.Build");
  api::PlanBuilder builder(data.pair, data.target, ops);
  builder.WithSigma(data.mds)
      .WithPrecompiledRcks(rcks)
      .WithQuality(quality)
      .WithSortKeys(match::StandardWindowKeys(data.pair))
      .WithTrainingInstance(&data.instance, /*estimate_lengths=*/false);
  if (matcher == api::PlanOptions::Matcher::kRuleBased) {
    // The top-k RCKs as rules, conjuncts cheapest-first under the quality
    // model so non-matching pairs fail out early, relaxed to θ-DL 0.8.
    std::vector<match::MatchRule> rules;
    for (size_t i = 0; i < rcks.size() && i < options.top_k; ++i) {
      std::vector<Conjunct> elems = rcks[i].elements();
      std::stable_sort(elems.begin(), elems.end(),
                       [&](const Conjunct& a, const Conjunct& b) {
                         return quality.Cost(a.attrs) < quality.Cost(b.attrs);
                       });
      rules.push_back(RelativeKey(std::move(elems)));
    }
    builder.WithRules(match::RelaxRulesForMatching(rules, ops->Dl(0.8)));
  }
  builder.WithOptions(std::move(options));
  auto plan = builder.Build();
  times->compile_s = watch.ElapsedSeconds();
  if (plan.ok()) times->train_s = (*plan)->compile_stats().train_seconds;
  return plan;
}

Status BuildDataset(size_t num_base, uint64_t seed,
                    api::PlanOptions::Matcher matcher, Dataset* out) {
  Stopwatch watch;
  {
    ScopedSpan span("datagen.GenerateCreditBilling");
    datagen::CreditBillingOptions gen;
    gen.num_base = num_base;
    gen.seed = seed;
    out->data = datagen::GenerateCreditBilling(gen, &out->ops);
  }
  out->times.generate_s = watch.ElapsedSeconds();
  auto plan = CompileExperimentPlan(out->data, &out->ops, matcher,
                                    &out->times);
  if (!plan.ok()) return plan.status();
  out->plan = *plan;
  return Status::OK();
}

// -------------------------------------------------------- fingerprints

uint64_t FingerprintTuple(uint64_t hash, int side, const Tuple& tuple) {
  hash = FnvMixU64(hash, static_cast<uint64_t>(side));
  hash = FnvMixU64(hash, static_cast<uint64_t>(tuple.id()));
  hash = FnvMixU64(hash, static_cast<uint64_t>(tuple.entity()));
  for (const std::string& v : tuple.values()) {
    hash = FnvMixString(hash, v);
    hash = FnvMixByte(hash, 0);
  }
  return hash;
}

uint64_t FingerprintInstance(const Instance& instance) {
  uint64_t hash = kFnvOffsetBasis;
  for (int side = 0; side < 2; ++side) {
    const Relation& rel = instance.side(side);
    for (size_t i = 0; i < rel.size(); ++i) {
      hash = FingerprintTuple(hash, side, rel.tuple(i));
    }
  }
  return hash;
}

// ------------------------------------------------------ reference checks

bool ReferenceDecision(const api::MatchPlan& plan, const Tuple& left,
                       const Tuple& right) {
  const sim::SimOpRegistry& ops = plan.ops();
  auto holds = [&](const Conjunct& c) {
    return ops.Eval(c.op, left.value(c.attrs.left), right.value(c.attrs.right));
  };
  if (const match::FellegiSunter* fs = plan.fs()) {
    // Same summation order as the model's own pattern score.
    const auto& elements = fs->vector().elements();
    double score = 0;
    for (size_t i = 0; i < elements.size(); ++i) {
      score += holds(elements[i]) ? fs->model().AgreementWeight(i)
                                  : fs->model().DisagreementWeight(i);
    }
    return score >= fs->Threshold();
  }
  for (const match::MatchRule& rule : plan.rules()) {
    bool all = true;
    for (const Conjunct& c : rule.elements()) {
      if (!holds(c)) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

bool CheckDecisions(const api::MatchPlan& plan, const Instance& corpus,
                    const std::vector<std::pair<uint32_t, uint32_t>>& matches,
                    const std::vector<std::pair<uint32_t, uint32_t>>& negatives,
                    std::string* why) {
  for (const auto& [l, r] : matches) {
    if (!ReferenceDecision(plan, corpus.left().tuple(l),
                           corpus.right().tuple(r))) {
      *why = "reported match (" + std::to_string(corpus.left().tuple(l).id()) +
             ", " + std::to_string(corpus.right().tuple(r).id()) +
             ") fails the reference decision";
      return false;
    }
  }
  for (const auto& [l, r] : negatives) {
    if (ReferenceDecision(plan, corpus.left().tuple(l),
                          corpus.right().tuple(r))) {
      *why = "unmatched candidate (" +
             std::to_string(corpus.left().tuple(l).id()) + ", " +
             std::to_string(corpus.right().tuple(r).id()) +
             ") passes the reference decision";
      return false;
    }
  }
  return true;
}

std::vector<std::pair<uint32_t, uint32_t>> SampleNegatives(
    const match::CandidateSet& candidates, const match::MatchResult& matches,
    size_t max_pairs, uint64_t seed) {
  std::vector<std::pair<uint32_t, uint32_t>> out;
  const auto& pairs = candidates.pairs();
  if (pairs.empty()) return out;
  Rng rng(seed);
  for (size_t tries = 0; tries < 4 * max_pairs && out.size() < max_pairs;
       ++tries) {
    const auto& p = pairs[rng.Index(pairs.size())];
    if (!matches.Contains(p.first, p.second)) out.push_back(p);
  }
  return out;
}

namespace {

/// Union-find components of the records of `corpus` under `matches`;
/// record k is left position k, or right position k - |left|.
std::vector<size_t> Components(
    const Instance& corpus,
    const std::vector<std::pair<uint32_t, uint32_t>>& matches) {
  const size_t nl = corpus.left().size();
  match::UnionFind uf(nl + corpus.right().size());
  for (const auto& [l, r] : matches) uf.Union(l, nl + r);
  std::vector<size_t> root(uf.size());
  for (size_t i = 0; i < uf.size(); ++i) root[i] = uf.Find(i);
  return root;
}

}  // namespace

bool CheckPartition(const Instance& corpus,
                    const std::vector<std::pair<uint32_t, uint32_t>>& matches,
                    const HandleMap& handles, std::string* why) {
  const std::vector<size_t> root = Components(corpus, matches);
  const size_t nl = corpus.left().size();
  std::unordered_map<size_t, uint64_t> handle_of_root;
  std::unordered_map<uint64_t, size_t> root_of_handle;
  for (size_t k = 0; k < root.size(); ++k) {
    const int side = k < nl ? 0 : 1;
    const Tuple& t = corpus.side(side).tuple(k < nl ? k : k - nl);
    auto it = handles.find({side, t.id()});
    if (it == handles.end()) {
      *why = "no cluster handle for record " + std::to_string(t.id());
      return false;
    }
    auto [h, fresh_h] = handle_of_root.emplace(root[k], it->second);
    auto [r, fresh_r] = root_of_handle.emplace(it->second, root[k]);
    if (h->second != it->second || r->second != root[k]) {
      *why = "cluster handles split or join a match component at record " +
             std::to_string(t.id());
      return false;
    }
  }
  if (handles.size() != root.size()) {
    *why = "cluster handles name records outside the corpus";
    return false;
  }
  return true;
}

bool CheckCorpus(const std::map<IdKey, Tuple>& model, const Instance& corpus,
                 std::string* why) {
  size_t seen = 0;
  for (int side = 0; side < 2; ++side) {
    const Relation& rel = corpus.side(side);
    for (size_t i = 0; i < rel.size(); ++i) {
      const Tuple& t = rel.tuple(i);
      auto it = model.find({side, t.id()});
      if (it == model.end()) {
        *why = "corpus holds record " + std::to_string(t.id()) +
               " the model does not";
        return false;
      }
      if (it->second.values() != t.values()) {
        *why = "record " + std::to_string(t.id()) + " differs from the model";
        return false;
      }
      ++seen;
    }
  }
  if (seen != model.size()) {
    *why = "corpus misses " + std::to_string(model.size() - seen) +
           " live records of the model";
    return false;
  }
  return true;
}

IdPairSet IdPairs(const Instance& corpus,
                  const std::vector<std::pair<uint32_t, uint32_t>>& matches) {
  IdPairSet out;
  for (const auto& [l, r] : matches) {
    out.emplace(corpus.left().tuple(l).id(), corpus.right().tuple(r).id());
  }
  return out;
}

std::vector<std::pair<uint32_t, uint32_t>> SortedPairs(
    const match::PairSet& set) {
  auto pairs = set.pairs();
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

std::vector<std::vector<std::pair<int, uint32_t>>> CanonicalClusters(
    const match::Clustering& clustering) {
  std::vector<std::vector<std::pair<int, uint32_t>>> out;
  for (const auto& cluster : clustering.clusters()) {
    std::vector<std::pair<int, uint32_t>> members;
    for (const auto& r : cluster) members.emplace_back(r.side, r.index);
    std::sort(members.begin(), members.end());
    out.push_back(std::move(members));
  }
  std::sort(out.begin(), out.end());
  return out;
}

Quality ComputeQuality(
    const Instance& corpus,
    const std::vector<std::pair<uint32_t, uint32_t>>& matches) {
  std::unordered_map<EntityId, std::pair<size_t, size_t>> per_entity;
  for (int side = 0; side < 2; ++side) {
    const Relation& rel = corpus.side(side);
    for (size_t i = 0; i < rel.size(); ++i) {
      auto& counts = per_entity[rel.tuple(i).entity()];
      (side == 0 ? counts.first : counts.second) += 1;
    }
  }
  double truth = 0;
  for (const auto& [entity, counts] : per_entity) {
    truth += static_cast<double>(counts.first) *
             static_cast<double>(counts.second);
  }
  double true_positives = 0;
  for (const auto& [l, r] : matches) {
    if (corpus.left().tuple(l).entity() == corpus.right().tuple(r).entity()) {
      true_positives += 1;
    }
  }
  Quality q;
  q.precision = matches.empty()
                    ? 0
                    : true_positives / static_cast<double>(matches.size());
  q.recall = truth == 0 ? 0 : true_positives / truth;
  return q;
}

Status StrictReplica::Apply(const stream::MatchDelta& delta) {
  if (delta.resync) {
    pairs_.clear();
  } else if (delta.from_generation != generation_) {
    return Status::FailedPrecondition(
        "gap: delta from generation " + std::to_string(delta.from_generation) +
        " onto replica at " + std::to_string(generation_));
  }
  for (const auto& p : delta.retired) {
    if (pairs_.erase({p.left, p.right}) == 0) {
      return Status::FailedPrecondition("phantom retire of (" +
                                        std::to_string(p.left) + ", " +
                                        std::to_string(p.right) + ")");
    }
  }
  for (const auto& p : delta.added) {
    if (!pairs_.emplace(p.left, p.right).second) {
      return Status::FailedPrecondition("double add of (" +
                                        std::to_string(p.left) + ", " +
                                        std::to_string(p.right) + ")");
    }
  }
  generation_ = delta.to_generation;
  return Status::OK();
}

void CheckView(const api::SessionView& view, uint64_t seed,
               HandleMap* handles, Report* report) {
  const Instance corpus = view.Corpus();
  const match::MatchResult matches = view.Matches();
  handles->clear();
  bool lookups_ok = true;
  for (int side = 0; side < 2; ++side) {
    const Relation& rel = corpus.side(side);
    for (size_t i = 0; i < rel.size(); ++i) {
      auto h = view.ClusterOf(side, rel.tuple(i).id());
      if (!h.ok()) {
        lookups_ok = false;
        continue;
      }
      (*handles)[{side, rel.tuple(i).id()}] = *h;
    }
  }
  report->Check(lookups_ok, "ClusterOf answers for every corpus record");
  std::string why;
  report->Check(CheckPartition(corpus, matches.pairs(), *handles, &why),
                "ClusterOf partition equals union-find over Matches(): " + why);

  // SameCluster against handle equality: every match, plus random pairs.
  Rng rng(seed);
  bool agree = true;
  auto probe = [&](TupleId a, TupleId b) {
    auto same = view.SameCluster(0, a, 1, b);
    auto ha = handles->find({0, a});
    auto hb = handles->find({1, b});
    if (!same.ok() || ha == handles->end() || hb == handles->end() ||
        *same != (ha->second == hb->second)) {
      agree = false;
    }
  };
  for (const auto& [l, r] : matches.pairs()) {
    probe(corpus.left().tuple(l).id(), corpus.right().tuple(r).id());
  }
  if (!corpus.left().empty() && !corpus.right().empty()) {
    for (size_t i = 0; i < 4096; ++i) {
      probe(corpus.left().tuple(rng.Index(corpus.left().size())).id(),
            corpus.right().tuple(rng.Index(corpus.right().size())).id());
    }
  }
  report->Check(agree, "SameCluster agrees with ClusterOf handles in a view");
}

void SelfTest(const api::MatchPlan& plan, const Instance& corpus,
              const std::vector<std::pair<uint32_t, uint32_t>>& matches,
              const HandleMap& handles,
              const std::vector<stream::MatchDelta>& deltas, Report* report) {
  std::string why;
  // 1. One false pair added to the matches.
  std::vector<std::pair<uint32_t, uint32_t>> forged = matches;
  bool planted = false;
  for (uint32_t l = 0; l < corpus.left().size() && !planted; ++l) {
    for (uint32_t r = 0; r < corpus.right().size() && r < 64; ++r) {
      if (!ReferenceDecision(plan, corpus.left().tuple(l),
                             corpus.right().tuple(r))) {
        forged.emplace_back(l, r);
        planted = true;
        break;
      }
    }
  }
  report->Check(planted && !CheckDecisions(plan, corpus, forged, {}, &why),
                "self-test: a false pair fails the reference decision");

  // 2. One delta dropped from the stream.
  if (!deltas.empty()) {
    bool rejected = false;
    StrictReplica replica;
    for (size_t i = 0; i < deltas.size(); ++i) {
      if (i == 1) continue;
      if (!replica.Apply(deltas[i]).ok()) rejected = true;
    }
    report->Check(deltas.size() >= 3 && rejected,
                  "self-test: a dropped delta is rejected by the replica");
  }

  // 3. One record moved to another cluster handle: a member of a
  // multi-record cluster gets a handle no other record has.
  HandleMap moved = handles;
  bool shifted = false;
  if (!matches.empty()) {
    const TupleId id = corpus.left().tuple(matches.front().first).id();
    uint64_t fresh = 0;
    for (const auto& [key, h] : handles) fresh = std::max(fresh, h + 1);
    moved[{0, id}] = fresh;
    shifted = true;
  }
  report->Check(shifted && !CheckPartition(corpus, matches, moved, &why),
                "self-test: a moved cluster handle fails the partition check");
}

}  // namespace mdmatch::perfbench
