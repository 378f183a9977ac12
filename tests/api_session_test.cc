// Tests for the incremental / sharded session API (api/session): a
// MatchSession fed any sequence of Upsert / Remove / Flush deltas must
// produce exactly the match pairs and clusters of a one-shot
// Executor::Run over the equivalent single batch (session.Corpus()), for
// every thread and shard count — including the windowing subtleties
// (removals pulling old pairs into a window, insertions pushing standing
// matches out of every window).

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/executor.h"
#include "api/plan.h"
#include "api/session.h"
#include "candidate/catalog.h"
#include "candidate/indexed_entry.h"
#include "datagen/credit_billing.h"
#include "match/clustering.h"
#include "match/key_function.h"

namespace mdmatch::api {
namespace {

std::vector<std::pair<uint32_t, uint32_t>> SortedPairs(
    const match::PairSet& set) {
  auto pairs = set.pairs();
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

/// Order-independent form of a clustering: sorted clusters of sorted
/// (side, position) members.
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

class ApiSessionTest : public testing::Test {
 protected:
  void SetUp() override {
    datagen::CreditBillingOptions gen;
    gen.num_base = 200;
    gen.seed = 55;
    data_ = datagen::GenerateCreditBilling(gen, &ops_);
  }

  Result<PlanPtr> BuildPlan(PlanOptions options = {}) {
    return PlanBuilder(data_.pair, data_.target, &ops_)
        .WithSigma(data_.mds)
        .WithOptions(options)
        .WithTrainingInstance(&data_.instance)
        .Build();
  }

  /// Upserts rows [begin, end) of both relations into the session.
  void UpsertRange(MatchSession* session, size_t begin, size_t end) {
    const Relation& left = data_.instance.left();
    const Relation& right = data_.instance.right();
    for (size_t i = begin; i < end && i < left.size(); ++i) {
      ASSERT_TRUE(session->Upsert(0, left.tuple(i)).ok());
    }
    for (size_t i = begin; i < end && i < right.size(); ++i) {
      ASSERT_TRUE(session->Upsert(1, right.tuple(i)).ok());
    }
  }

  /// One-shot ground truth over the session's standing corpus.
  void ExpectSessionEqualsOneShot(const PlanPtr& plan,
                                  const MatchSession& session) {
    Instance corpus = session.Corpus();
    auto oneshot = Executor(plan).Run(corpus);
    ASSERT_TRUE(oneshot.ok()) << oneshot.status();
    EXPECT_EQ(SortedPairs(session.Matches()), SortedPairs(oneshot->matches));
    EXPECT_EQ(CanonicalClusters(session.Clusters()),
              CanonicalClusters(match::ClusterMatches(oneshot->matches,
                                                      corpus)));
  }

  /// Cluster handles, bit for bit: every record's published handle is the
  /// minimum packed (side, seq) over its one-shot cluster.
  void ExpectCanonicalHandles(const PlanPtr& plan,
                              const MatchSession& session) {
    SessionView view = session.View();
    Instance corpus = view.Corpus();
    auto oneshot = Executor(plan).Run(corpus);
    ASSERT_TRUE(oneshot.ok()) << oneshot.status();
    const SharedMatchState& state = *view.state()->state;
    auto entry = [&](const match::RecordRef& ref) {
      const Relation& rel = ref.side == 0 ? corpus.left() : corpus.right();
      return state.ids[ref.side].Get(rel.tuple(ref.index).id());
    };
    const match::Clustering clustering =
        match::ClusterMatches(oneshot->matches, corpus);
    for (const auto& cluster : clustering.clusters()) {
      uint64_t expected = UINT64_MAX;
      for (const auto& ref : cluster) {
        ASSERT_NE(entry(ref), nullptr);
        expected = std::min(expected, (static_cast<uint64_t>(ref.side) << 32) |
                                          entry(ref)->seq);
      }
      for (const auto& ref : cluster) {
        EXPECT_EQ(entry(ref)->handle, expected);
      }
    }
  }

  /// The full incremental scenario of the acceptance criteria: several
  /// Upsert deltas, removals, and in-place updates, flushed separately.
  void RunIncrementalScenario(const PlanPtr& plan, size_t num_threads) {
    SessionOptions options;
    options.num_threads = num_threads;
    options.min_pairs_per_thread = 1;
    MatchSession session(plan, options);

    // Delta 1 + delta 2: two thirds of the data in two flushes.
    const size_t third = data_.instance.left().size() / 3;
    UpsertRange(&session, 0, third);
    ASSERT_TRUE(session.Flush().ok());
    UpsertRange(&session, third, 2 * third);
    auto second = session.Flush();
    ASSERT_TRUE(second.ok());
    EXPECT_GT(second->matches_added, 0u);
    ExpectSessionEqualsOneShot(plan, session);

    // Removals from the standing corpus (both sides).
    size_t removed = 0;
    for (size_t i = 0; i < 2 * third; i += 9, ++removed) {
      ASSERT_TRUE(
          session.Remove(0, data_.instance.left().tuple(i).id()).ok());
      ASSERT_TRUE(
          session.Remove(1, data_.instance.right().tuple(i).id()).ok());
    }
    auto after_remove = session.Flush();
    ASSERT_TRUE(after_remove.ok());
    EXPECT_EQ(after_remove->removed, 2 * removed);
    ExpectSessionEqualsOneShot(plan, session);

    // Delta 3 plus in-place updates: corrupt one attribute of a few
    // surviving records (their standing matches must be re-decided
    // against the new values).
    UpsertRange(&session, 2 * third, data_.instance.left().size());
    for (size_t i = 1; i < third; i += 11) {
      Tuple updated = data_.instance.left().tuple(i);
      updated.set_value(0, "zzz-updated-" + std::to_string(i));
      ASSERT_TRUE(session.Upsert(0, std::move(updated)).ok());
    }
    ASSERT_TRUE(session.Flush().ok());
    ExpectSessionEqualsOneShot(plan, session);
    EXPECT_GT(session.Matches().size(), 0u);
  }

  // Insert-only waves of fillers whose sort keys equal the earlier endpoint
  // of a standing match, in every pass: `window` of them land between the
  // endpoints, so the pair drifts out of every window and must be retired
  // by the delta-local re-rank. Each wave prefers pairs whose closest pass
  // holds them exactly window-1 apart — the far edge of the re-rank's
  // reach. A catalog sibling ingesting the same waves (alternately
  // building and adopting) must publish the same state.
  void RunDriftWaves(const PlanPtr& plan, size_t threads) {
    auto catalog = std::make_shared<candidate::IndexCatalog>();
    SessionOptions options;
    options.num_threads = threads;
    options.min_pairs_per_thread = 1;
    options.catalog = catalog;
    options.corpus_id = "drift";
    MatchSession session(plan, options);
    MatchSession sibling(plan, options);
    for (MatchSession* s : {&session, &sibling}) {
      for (int side = 0; side < 2; ++side) {
        const Relation& rel =
            side == 0 ? data_.instance.left() : data_.instance.right();
        for (const Tuple& t : rel.tuples()) {
          ASSERT_TRUE(s->Upsert(side, t).ok());
        }
      }
      ASSERT_TRUE(s->Flush().ok());
    }

    const size_t window = plan->options().window_size;
    const size_t passes = plan->sort_keys().size();
    TupleId next_id = 1u << 30;
    size_t drifted = 0;
    size_t edge_pairs = 0;
    for (size_t wave = 0; wave < 3; ++wave) {
      SessionView view = session.View();
      Instance corpus = view.Corpus();
      auto pairs = SortedPairs(view.Matches());
      ASSERT_GT(pairs.size(), 3u);
      const SharedMatchState& state = *view.state()->state;
      // Per pass, the rank of each endpoint of pair i.
      auto ranks = [&](size_t i, size_t p) {
        const auto [l, r] = pairs[i];
        const Tuple& lt = corpus.left().tuple(l);
        const Tuple& rt = corpus.right().tuple(r);
        const auto& idx = state.indexes->window_passes()[p];
        const match::KeyFunction& key = plan->sort_keys()[p];
        return std::pair{
            idx.LowerBound(
                {key.Render(lt, 0), 0, state.ids[0].Get(lt.id())->seq}),
            idx.LowerBound(
                {key.Render(rt, 1), 1, state.ids[1].Get(rt.id())->seq})};
      };
      std::vector<size_t> picks;
      for (size_t n = 0; n < pairs.size() && picks.size() < 2; ++n) {
        const size_t i = (wave * 31 + n) % pairs.size();
        size_t closest = SIZE_MAX;
        for (size_t p = 0; p < passes; ++p) {
          const auto [pl, pr] = ranks(i, p);
          closest = std::min(closest, pl > pr ? pl - pr : pr - pl);
        }
        if (closest == window - 1) picks.push_back(i);
      }
      edge_pairs += picks.size();
      picks.push_back((wave * 17 + 5) % pairs.size());

      std::vector<std::pair<int, Tuple>> fillers;
      for (const size_t i : picks) {
        const Tuple* ends[2] = {&corpus.left().tuple(pairs[i].first),
                                &corpus.right().tuple(pairs[i].second)};
        for (size_t p = 0; p < passes; ++p) {
          const auto [pl, pr] = ranks(i, p);
          const int first = pr < pl ? 1 : 0;
          std::vector<bool> keep(ends[first]->arity(), false);
          for (const auto& element : plan->sort_keys()[p].elements()) {
            keep[first == 0 ? element.attrs.left : element.attrs.right] = true;
          }
          for (size_t k = 0; k < window; ++k) {
            std::vector<std::string> values = ends[first]->values();
            for (size_t a = 0; a < values.size(); ++a) {
              if (!keep[a]) values[a] = "~filler-" + std::to_string(next_id);
            }
            fillers.emplace_back(first, Tuple(next_id++, std::move(values)));
          }
        }
      }
      // Alternate which session builds the transition and which adopts it.
      MatchSession* order[2] = {&session, &sibling};
      if (wave % 2 == 1) std::swap(order[0], order[1]);
      for (MatchSession* s : order) {
        for (const auto& [side, tuple] : fillers) {
          ASSERT_TRUE(s->Upsert(side, tuple).ok());
        }
        auto report = s->Flush();
        ASSERT_TRUE(report.ok()) << report.status();
        EXPECT_EQ(report->removed, 0u);
        if (s == order[0]) drifted += report->matches_dropped;
      }
      for (MatchSession* s : {&session, &sibling}) {
        ExpectSessionEqualsOneShot(plan, *s);
        ExpectCanonicalHandles(plan, *s);
      }
      EXPECT_EQ(SortedPairs(sibling.Matches()),
                SortedPairs(session.Matches()));
    }
    EXPECT_GT(drifted, 0u) << "no standing pair drifted out of every window";
    EXPECT_GT(edge_pairs, 0u) << "no standing pair sat at the window edge";
  }

  sim::SimOpRegistry ops_;
  datagen::CreditBillingData data_;
};

TEST_F(ApiSessionTest, IncrementalWindowingMatchesOneShotSingleThread) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  RunIncrementalScenario(*plan, 1);
}

TEST_F(ApiSessionTest, IncrementalWindowingMatchesOneShotFourThreads) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  RunIncrementalScenario(*plan, 4);
}

TEST_F(ApiSessionTest, IncrementalBlockingMatchesOneShot) {
  PlanOptions options;
  options.candidates = PlanOptions::Candidates::kBlocking;
  auto plan = BuildPlan(options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  RunIncrementalScenario(*plan, 1);
  RunIncrementalScenario(*plan, 4);
}

TEST_F(ApiSessionTest, IncrementalFellegiSunterMatchesOneShot) {
  PlanOptions options;
  options.matcher = PlanOptions::Matcher::kFellegiSunter;
  auto plan = BuildPlan(options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  RunIncrementalScenario(*plan, 4);
}

TEST_F(ApiSessionTest, ClosurePlanReportsImpliedPairs) {
  PlanOptions options;
  options.transitive_closure = true;
  auto plan = BuildPlan(options);
  ASSERT_TRUE(plan.ok()) << plan.status();
  RunIncrementalScenario(*plan, 1);
}

// Sharded execution of one oversized batch: the whole dataset in a single
// flush, split internally by derived key ranges over 4 workers, must
// reproduce the one-shot (and the unsharded session) exactly.
TEST_F(ApiSessionTest, ShardedBulkLoadMatchesOneShot) {
  for (bool blocking : {false, true}) {
    PlanOptions plan_options;
    if (blocking) {
      plan_options.candidates = PlanOptions::Candidates::kBlocking;
    }
    auto plan = BuildPlan(plan_options);
    ASSERT_TRUE(plan.ok()) << plan.status();

    SessionOptions sharded;
    sharded.num_threads = 4;
    sharded.shard_min_delta = 1;  // force the sharded path
    MatchSession session(*plan, sharded);
    UpsertRange(&session, 0, data_.instance.left().size());
    auto report = session.Flush();
    ASSERT_TRUE(report.ok()) << report.status();
    EXPECT_GT(report->shards_used, 1u) << "sharded path not taken";
    ExpectSessionEqualsOneShot(*plan, session);

    MatchSession unsharded(*plan);  // delta path, 1 thread
    UpsertRange(&unsharded, 0, data_.instance.left().size());
    ASSERT_TRUE(unsharded.Flush().ok());
    EXPECT_EQ(SortedPairs(session.Matches()),
              SortedPairs(unsharded.Matches()));
  }
}

// A sharded flush against an already-indexed standing corpus (not just a
// cold bulk load) must also be exact.
TEST_F(ApiSessionTest, ShardedIncrementalDeltaMatchesOneShot) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  SessionOptions options;
  options.num_threads = 4;
  options.shard_min_delta = 1;
  MatchSession session(*plan, options);
  const size_t half = data_.instance.left().size() / 2;
  UpsertRange(&session, 0, half);
  ASSERT_TRUE(session.Flush().ok());
  for (size_t i = 0; i < half; i += 13) {
    ASSERT_TRUE(session.Remove(0, data_.instance.left().tuple(i).id()).ok());
  }
  UpsertRange(&session, half, data_.instance.left().size());
  auto report = session.Flush();
  ASSERT_TRUE(report.ok());
  EXPECT_GT(report->shards_used, 1u);
  ExpectSessionEqualsOneShot(*plan, session);
}

TEST_F(ApiSessionTest, MatchesAreQueryableBetweenIngests) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  MatchSession session(*plan);

  EXPECT_EQ(session.Matches().size(), 0u);
  UpsertRange(&session, 0, data_.instance.left().size());
  EXPECT_GT(session.pending_ops(), 0u);
  EXPECT_EQ(session.left_size(), 0u) << "staged records are not live";
  EXPECT_EQ(session.Matches().size(), 0u);

  auto report = session.Flush();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(session.pending_ops(), 0u);
  EXPECT_EQ(session.left_size(), data_.instance.left().size());
  EXPECT_GT(session.Matches().size(), 0u);
  EXPECT_EQ(session.Matches().size(), report->total_matches);
}

TEST_F(ApiSessionTest, ClusterMembershipQueries) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  MatchSession session(*plan);
  UpsertRange(&session, 0, data_.instance.left().size());
  ASSERT_TRUE(session.Flush().ok());

  match::MatchResult matches = session.Matches();
  ASSERT_GT(matches.size(), 0u);
  Instance corpus = session.Corpus();
  const auto& [l, r] = matches.pairs().front();
  const TupleId left_id = corpus.left().tuple(l).id();
  const TupleId right_id = corpus.right().tuple(r).id();

  auto same = session.SameCluster(0, left_id, 1, right_id);
  ASSERT_TRUE(same.ok()) << same.status();
  EXPECT_TRUE(*same) << "matched records must share a cluster";

  // Find a left record matched to nothing: different cluster.
  for (uint32_t i = 0; i < corpus.left().size(); ++i) {
    bool in_any = false;
    for (const auto& [ml, mr] : matches.pairs()) {
      (void)mr;
      if (ml == i) in_any = true;
    }
    if (!in_any) {
      auto diff = session.SameCluster(0, corpus.left().tuple(i).id(), 1,
                                      right_id);
      ASSERT_TRUE(diff.ok());
      EXPECT_FALSE(*diff);
      break;
    }
  }

  EXPECT_FALSE(session.ClusterOf(0, 999999).ok());
  EXPECT_FALSE(session.ClusterOf(7, left_id).ok());
}

// Removing the only billing record bridging a cluster must split it (the
// clusters that lost an edge are repaired from their surviving pairs).
TEST_F(ApiSessionTest, RemovalSplitsClusters) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  MatchSession session(*plan);
  UpsertRange(&session, 0, data_.instance.left().size());
  ASSERT_TRUE(session.Flush().ok());

  // Find two left records matched to one shared billing record.
  match::MatchResult matches = session.Matches();
  Instance corpus = session.Corpus();
  for (const auto& [l1, r1] : matches.pairs()) {
    for (const auto& [l2, r2] : matches.pairs()) {
      if (r1 != r2 || l1 == l2) continue;
      const TupleId a = corpus.left().tuple(l1).id();
      const TupleId b = corpus.left().tuple(l2).id();
      auto joined = session.SameCluster(0, a, 0, b);
      ASSERT_TRUE(joined.ok());
      ASSERT_TRUE(*joined);
      ASSERT_TRUE(session.Remove(1, corpus.right().tuple(r1).id()).ok());
      auto report = session.Flush();
      ASSERT_TRUE(report.ok());
      EXPECT_GE(report->matches_dropped, 2u);
      ExpectSessionEqualsOneShot(*plan, session);
      auto split = session.SameCluster(0, a, 0, b);
      ASSERT_TRUE(split.ok());
      // They may still be joined through another bridge; the one-shot
      // equivalence above is the real check. Just exercise the query.
      (void)*split;
      return;
    }
  }
  GTEST_SKIP() << "no shared billing match in this dataset";
}

TEST_F(ApiSessionTest, InsertDriftRetiresPairsExactly) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  for (size_t threads : {1, 4}) {
    RunDriftWaves(*plan, threads);
  }
}

// Removing or rewriting a record that bridges a multi-member cluster must
// split it; the local repair (no full rebuild) must leave exactly the
// one-shot clusters and canonical handles.
TEST_F(ApiSessionTest, BridgeRemovalAndUpdateRepairClustersLocally) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  for (size_t threads : {1, 4}) {
    SessionOptions options;
    options.num_threads = threads;
    options.min_pairs_per_thread = 1;
    MatchSession session(*plan, options);
    UpsertRange(&session, 0, data_.instance.left().size());
    ASSERT_TRUE(session.Flush().ok());

    size_t splits = 0;
    for (size_t wave = 0; wave < 4; ++wave) {
      // Bridges: members whose pairs are a cluster's only link between
      // two others — a record matched to two partners that share no other
      // partner path is a cut vertex of a 3+-member cluster.
      Instance corpus = session.Corpus();
      auto pairs = SortedPairs(session.Matches());
      std::vector<std::pair<int, uint32_t>> bridges;
      for (int side = 0; side < 2 && bridges.size() < 4; ++side) {
        const size_t n = side == 0 ? corpus.left().size()
                                   : corpus.right().size();
        for (uint32_t x = 0; x < n && bridges.size() < 4; ++x) {
          // Connectivity of x's cluster without x, by a tiny union-find.
          match::UnionFind uf(corpus.left().size() + corpus.right().size());
          size_t degree = 0;
          for (const auto& [l, r] : pairs) {
            if ((side == 0 && l == x) || (side == 1 && r == x)) {
              ++degree;
              continue;
            }
            uf.Union(l, corpus.left().size() + r);
          }
          if (degree < 2) continue;
          std::vector<size_t> partners;
          for (const auto& [l, r] : pairs) {
            if (side == 0 && l == x) {
              partners.push_back(corpus.left().size() + r);
            }
            if (side == 1 && r == x) partners.push_back(l);
          }
          bool cut = false;
          for (size_t partner : partners) {
            cut = cut || uf.Find(partner) != uf.Find(partners[0]);
          }
          if (cut) bridges.emplace_back(side, x);
        }
      }
      if (bridges.empty()) break;
      const size_t clusters_before = session.Clusters().num_clusters();
      for (size_t i = 0; i < bridges.size(); ++i) {
        const auto [side, pos] = bridges[i];
        const Tuple& t = side == 0 ? corpus.left().tuple(pos)
                                   : corpus.right().tuple(pos);
        if ((i + wave) % 2 == 0) {
          ASSERT_TRUE(session.Remove(side, t.id()).ok());
        } else {
          Tuple updated = t;
          for (size_t a = 0; a < updated.arity(); ++a) {
            updated.set_value(static_cast<AttrId>(a),
                              "~rw" + std::to_string(t.id()) + "-" +
                                  std::to_string(a));
          }
          ASSERT_TRUE(session.Upsert(side, std::move(updated)).ok());
        }
      }
      auto report = session.Flush();
      ASSERT_TRUE(report.ok()) << report.status();
      EXPECT_FALSE(report->clusters_rebuilt);
      EXPECT_GE(report->matches_dropped, bridges.size());
      ExpectSessionEqualsOneShot(*plan, session);
      ExpectCanonicalHandles(*plan, session);
      if (session.Clusters().num_clusters() > clusters_before) ++splits;
    }
    EXPECT_GT(splits, 0u) << "no wave split a cluster";
  }
}

// The drift re-rank's work is bounded by the insertion's neighborhoods:
// a one-record insert examines at most passes * (window-1)^2 standing
// pairs, at 1k and 4k standing records alike — while the standing match
// set (what a re-rank of every pair would touch) grows past that bound.
// The count is not the same number on both corpora: it is the number of
// standing pairs the insert lands between, at most window-1 apart in some
// pass, and the denser corpus puts other records (and pairs) next to the
// insert. So each flush's count is checked against exactly that set,
// rebuilt from the corpus and the sort keys apart from the session; a
// walk that reached further into a larger corpus would overcount. The
// inserts are copies of endpoints of pairs standing in both corpora, so
// each lands next to an endpoint, among matched records.
TEST_F(ApiSessionTest, OneInsertRerankWorkIsCorpusIndependent) {
  datagen::CreditBillingOptions gen;
  gen.num_base = 1200;
  gen.seed = 56;
  sim::SimOpRegistry ops;
  datagen::CreditBillingData data = datagen::GenerateCreditBilling(gen, &ops);
  auto plan = PlanBuilder(data.pair, data.target, &ops)
                  .WithSigma(data.mds)
                  .WithTrainingInstance(&data.instance)
                  .Build();
  ASSERT_TRUE(plan.ok()) << plan.status();
  const size_t window = (*plan)->options().window_size;
  const size_t bound =
      (*plan)->sort_keys().size() * (window - 1) * (window - 1);
  const Relation& left = data.instance.left();
  const Relation& right = data.instance.right();
  ASSERT_GE(left.size(), 2000u);
  ASSERT_GE(right.size(), 2000u);

  MatchSession small(*plan);
  MatchSession large(*plan);
  for (auto [session, standing] : {std::pair{&small, size_t{1000}},
                                   std::pair{&large, size_t{4000}}}) {
    for (size_t i = 0; i < standing / 2; ++i) {
      ASSERT_TRUE(session->Upsert(0, left.tuple(i)).ok());
      ASSERT_TRUE(session->Upsert(1, right.tuple(i)).ok());
    }
    ASSERT_TRUE(session->Flush().ok());
  }
  EXPECT_GT(large.Matches().size(), bound);

  // Rows [0, 500) of both sides stand in both corpora, so a pair matched
  // in the small corpus and (by ids) in the large one names the same rows.
  auto standing_rows = [](const MatchSession& session) {
    Instance corpus = session.Corpus();
    const match::MatchResult matches = session.Matches();
    std::vector<std::pair<TupleId, TupleId>> ids;
    for (const auto& [l, r] : matches.pairs()) {
      ids.emplace_back(corpus.left().tuple(l).id(),
                       corpus.right().tuple(r).id());
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  const auto in_small = standing_rows(small);
  const auto in_large = standing_rows(large);
  std::vector<std::pair<TupleId, TupleId>> common;
  std::set_intersection(in_small.begin(), in_small.end(), in_large.begin(),
                        in_large.end(), std::back_inserter(common));
  ASSERT_FALSE(common.empty());
  // Copies of both endpoints of up to 16 such pairs, one per flush.
  std::vector<std::pair<int, const Tuple*>> originals;
  for (size_t c = 0; c < common.size() && c < 16; ++c) {
    for (size_t i = 0; i < 500; ++i) {
      if (left.tuple(i).id() == common[c].first) {
        originals.emplace_back(0, &left.tuple(i));
      }
      if (right.tuple(i).id() == common[c].second) {
        originals.emplace_back(1, &right.tuple(i));
      }
    }
  }
  ASSERT_GE(originals.size(), 2u);

  // Standing pairs that `tuple`, inserted on `side`, lands between in some
  // pass while they sit at most window-1 apart. Only appends reach these
  // sessions, so a record's seq is its corpus position.
  auto straddled = [&](const MatchSession& session, int side,
                       const Tuple& tuple) {
    const Instance corpus = session.Corpus();
    const Relation* rel[2] = {&corpus.left(), &corpus.right()};
    const match::MatchResult matches = session.Matches();
    std::set<std::pair<uint32_t, uint32_t>> found;
    for (const match::KeyFunction& key : (*plan)->sort_keys()) {
      std::vector<candidate::IndexedEntry> order;
      for (uint8_t s = 0; s < 2; ++s) {
        for (uint32_t i = 0; i < rel[s]->size(); ++i) {
          order.push_back({key.Render(rel[s]->tuple(i), s), s, i});
        }
      }
      std::sort(order.begin(), order.end());
      std::vector<size_t> rank[2] = {std::vector<size_t>(rel[0]->size()),
                                     std::vector<size_t>(rel[1]->size())};
      for (size_t k = 0; k < order.size(); ++k) {
        rank[order[k].side][order[k].seq] = k;
      }
      const candidate::IndexedEntry inserted{
          key.Render(tuple, side), static_cast<uint8_t>(side),
          static_cast<uint32_t>(rel[side]->size())};
      const size_t at = static_cast<size_t>(
          std::lower_bound(order.begin(), order.end(), inserted) -
          order.begin());
      for (const auto& [l, r] : matches.pairs()) {
        const size_t lo = std::min(rank[0][l], rank[1][r]);
        const size_t hi = std::max(rank[0][l], rank[1][r]);
        if (lo < at && at <= hi && hi - lo <= window - 1) {
          found.emplace(l, r);
        }
      }
    }
    return found.size();
  };

  for (MatchSession* session : {&small, &large}) {
    size_t checked = 0;
    for (size_t k = 0; k < originals.size(); ++k) {
      const auto [side, original] = originals[k];
      Tuple copy((1u << 30) + k, original->values());
      const size_t expected = straddled(*session, side, copy);
      ASSERT_TRUE(session->Upsert(side, std::move(copy)).ok());
      auto report = session->Flush();
      ASSERT_TRUE(report.ok()) << report.status();
      EXPECT_EQ(report->upserted, 1u);
      EXPECT_FALSE(report->clusters_rebuilt);
      EXPECT_LE(report->rerank_pairs_checked, bound);
      EXPECT_EQ(report->rerank_pairs_checked, expected);
      checked += report->rerank_pairs_checked;
    }
    EXPECT_GT(checked, 0u) << "no standing pair straddled an insert";
  }
  ExpectSessionEqualsOneShot(*plan, large);
}

TEST_F(ApiSessionTest, ValidatesArgs) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  MatchSession session(*plan);

  EXPECT_EQ(session.Upsert(2, data_.instance.left().tuple(0)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(session.Upsert(1, data_.instance.left().tuple(0)).code(),
            StatusCode::kInvalidArgument)
      << "credit tuple arity must not fit the billing schema";
  EXPECT_EQ(session.Remove(0, 12345).code(), StatusCode::kNotFound);

  // Remove of a staged-but-unflushed record is legal and nets to a no-op.
  ASSERT_TRUE(session.Upsert(0, data_.instance.left().tuple(0)).ok());
  ASSERT_TRUE(session.Remove(0, data_.instance.left().tuple(0).id()).ok());
  auto report = session.Flush();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(session.left_size(), 0u);
}

TEST_F(ApiSessionTest, EmptyFlushIsANoOp) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok()) << plan.status();
  MatchSession session(*plan);
  auto report = session.Flush();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->upserted, 0u);
  EXPECT_EQ(report->pairs_evaluated, 0u);
  EXPECT_EQ(report->total_matches, 0u);
}

}  // namespace
}  // namespace mdmatch::api
