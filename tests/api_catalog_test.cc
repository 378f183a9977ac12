// Tests for shared candidate indexes and shared match state across
// sessions (SessionOptions::catalog + candidate::IndexCatalog): sessions
// attached to one catalog entry must produce matches, clusters and raw
// cluster handles bit-identical to fully independent sessions — the only
// observable difference is that one session builds each index snapshot /
// match state and the others adopt it (IngestReport::index_reused,
// IngestReport::match_reused) — including under concurrent flushes.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "api/executor.h"
#include "api/plan.h"
#include "api/plan_io.h"
#include "api/session.h"
#include "candidate/catalog.h"
#include "datagen/credit_billing.h"
#include "match/clustering.h"

namespace mdmatch::api {
namespace {

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

class ApiCatalogTest : public testing::Test {
 protected:
  void SetUp() override {
    datagen::CreditBillingOptions gen;
    gen.num_base = 150;
    gen.seed = 77;
    data_ = datagen::GenerateCreditBilling(gen, &ops_);
  }

  Result<PlanPtr> BuildPlan(PlanOptions options = {}) {
    return PlanBuilder(data_.pair, data_.target, &ops_)
        .WithSigma(data_.mds)
        .WithOptions(options)
        .WithTrainingInstance(&data_.instance)
        .Build();
  }

  /// Stages rows [begin, end) of both relations into every session.
  void UpsertRange(const std::vector<MatchSession*>& sessions, size_t begin,
                   size_t end) {
    for (MatchSession* session : sessions) {
      const Relation& left = data_.instance.left();
      const Relation& right = data_.instance.right();
      for (size_t i = begin; i < end && i < left.size(); ++i) {
        ASSERT_TRUE(session->Upsert(0, left.tuple(i)).ok());
      }
      for (size_t i = begin; i < end && i < right.size(); ++i) {
        ASSERT_TRUE(session->Upsert(1, right.tuple(i)).ok());
      }
    }
  }

  void ExpectSameState(MatchSession& a, MatchSession& b) {
    EXPECT_EQ(SortedPairs(a.Matches()), SortedPairs(b.Matches()));
    EXPECT_EQ(CanonicalClusters(a.Clusters()), CanonicalClusters(b.Clusters()));
  }

  /// Cluster handles must agree as raw numbers, not just as partitions:
  /// a handle is the minimum packed (side, seq) over the cluster, a pure
  /// function of the match graph, so shared, adopting and fully private
  /// sessions fed the same deltas produce identical handles.
  void ExpectSameHandles(MatchSession& a, MatchSession& b) {
    for (int side = 0; side < 2; ++side) {
      const Relation& rel =
          side == 0 ? data_.instance.left() : data_.instance.right();
      for (size_t i = 0; i < rel.size(); ++i) {
        const TupleId id = rel.tuple(i).id();
        auto ha = a.ClusterOf(side, id);
        auto hb = b.ClusterOf(side, id);
        ASSERT_EQ(ha.ok(), hb.ok()) << "side " << side << " row " << i;
        if (ha.ok()) {
          EXPECT_EQ(*ha, *hb) << "side " << side << " row " << i;
        }
      }
    }
  }

  sim::SimOpRegistry ops_;
  datagen::CreditBillingData data_;
};

TEST_F(ApiCatalogTest, SharedEntryMatchesIndependentSessionsBitForBit) {
  for (const auto candidates : {PlanOptions::Candidates::kWindowing,
                                PlanOptions::Candidates::kBlocking}) {
    PlanOptions options;
    options.candidates = candidates;
    auto plan = BuildPlan(options);
    ASSERT_TRUE(plan.ok());

    auto catalog = std::make_shared<candidate::IndexCatalog>();
    SessionOptions shared;
    shared.catalog = catalog;
    shared.corpus_id = "stream";
    MatchSession first(*plan, shared);
    MatchSession second(*plan, shared);
    MatchSession lone(*plan);  // the reference: private indexes

    // Identical delta streams (inserts, then an update + removal wave).
    const std::vector<std::pair<size_t, size_t>> waves = {
        {0, 60}, {60, 120}, {120, 200}};
    for (const auto& [begin, end] : waves) {
      UpsertRange({&first, &second, &lone}, begin, end);
      auto r1 = first.Flush();
      auto r2 = second.Flush();
      auto r3 = lone.Flush();
      ASSERT_TRUE(r1.ok() && r2.ok() && r3.ok());
      // The flush order is deterministic here: `first` builds, `second`
      // adopts, the lone session never shares.
      EXPECT_FALSE(r1->index_reused);
      EXPECT_TRUE(r2->index_reused);
      EXPECT_FALSE(r3->index_reused);
      ExpectSameState(first, lone);
      ExpectSameState(second, lone);
    }

    // An update + removal wave (windowing drift, block moves).
    std::vector<MatchSession*> all = {&first, &second, &lone};
    for (MatchSession* session : all) {
      for (size_t i = 0; i < 30; ++i) {
        Tuple t = data_.instance.left().tuple(i);
        t.set_value(0, t.value(0) + "x");
        ASSERT_TRUE(session->Upsert(0, std::move(t)).ok());
      }
      for (size_t i = 40; i < 55; ++i) {
        ASSERT_TRUE(
            session->Remove(1, data_.instance.right().tuple(i).id()).ok());
      }
    }
    auto r1 = first.Flush();
    auto r2 = second.Flush();
    auto r3 = lone.Flush();
    ASSERT_TRUE(r1.ok() && r2.ok() && r3.ok());
    EXPECT_TRUE(r2->index_reused);
    ExpectSameState(first, lone);
    ExpectSameState(second, lone);

    // The shared snapshot is literally the same object, not a twin.
    EXPECT_EQ(first.indexes(), second.indexes());
    EXPECT_NE(first.indexes(), lone.indexes());

    // One-shot ground truth over the standing corpus.
    auto oneshot = Executor(*plan).Run(lone.Corpus());
    ASSERT_TRUE(oneshot.ok());
    EXPECT_EQ(SortedPairs(first.Matches()), SortedPairs(oneshot->matches));
  }
}

TEST_F(ApiCatalogTest, SharedMatchStoreBitIdenticalAcrossWaves) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok());
  auto catalog = std::make_shared<candidate::IndexCatalog>();
  SessionOptions shared;
  shared.catalog = catalog;
  shared.corpus_id = "stream";
  MatchSession first(*plan, shared);
  MatchSession second(*plan, shared);
  MatchSession lone(*plan);  // the reference: fully private state

  const std::vector<std::pair<size_t, size_t>> waves = {
      {0, 60}, {60, 140}, {140, 220}};
  for (const auto& [begin, end] : waves) {
    UpsertRange({&first, &second, &lone}, begin, end);
    auto r1 = first.Flush();
    auto r2 = second.Flush();
    auto r3 = lone.Flush();
    ASSERT_TRUE(r1.ok() && r2.ok() && r3.ok());
    // `first` builds the match state, `second` adopts it whole: no
    // candidate generation, no pair evaluation, same leader counters.
    EXPECT_FALSE(r1->match_reused);
    EXPECT_TRUE(r2->match_reused);
    EXPECT_TRUE(r2->index_reused);
    EXPECT_EQ(r2->pairs_evaluated, 0u);
    EXPECT_EQ(r2->matches_added, r1->matches_added);
    EXPECT_EQ(r2->matches_dropped, r1->matches_dropped);
    EXPECT_FALSE(r3->match_reused);
    ExpectSameState(first, lone);
    ExpectSameState(second, lone);
    ExpectSameHandles(first, lone);
    ExpectSameHandles(second, lone);
  }

  // An update + removal wave: retirements and cluster splits must travel
  // through the adopted state exactly like through a private rebuild.
  for (MatchSession* session : {&first, &second, &lone}) {
    for (size_t i = 0; i < 25; ++i) {
      Tuple t = data_.instance.left().tuple(i);
      t.set_value(0, t.value(0) + "y");
      ASSERT_TRUE(session->Upsert(0, std::move(t)).ok());
    }
    for (size_t i = 30; i < 45; ++i) {
      ASSERT_TRUE(
          session->Remove(1, data_.instance.right().tuple(i).id()).ok());
    }
  }
  auto r1 = first.Flush();
  auto r2 = second.Flush();
  auto r3 = lone.Flush();
  ASSERT_TRUE(r1.ok() && r2.ok() && r3.ok());
  EXPECT_TRUE(r2->match_reused);
  EXPECT_EQ(r2->removed, r1->removed);
  ExpectSameState(first, lone);
  ExpectSameState(second, lone);
  ExpectSameHandles(first, lone);
  ExpectSameHandles(second, lone);

  // Ground truth over the standing corpus, from the adopting session.
  auto oneshot = Executor(*plan).Run(second.Corpus());
  ASSERT_TRUE(oneshot.ok());
  EXPECT_EQ(SortedPairs(second.Matches()), SortedPairs(oneshot->matches));
}

TEST_F(ApiCatalogTest, AdopterLeadsLaterWavesAfterMaterializing) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok());
  auto catalog = std::make_shared<candidate::IndexCatalog>();
  SessionOptions shared;
  shared.catalog = catalog;
  shared.corpus_id = "stream";
  MatchSession first(*plan, shared);
  MatchSession second(*plan, shared);
  MatchSession lone(*plan);

  // Wave 1: `first` leads, `second` adopts (and drops its build state).
  UpsertRange({&first, &second, &lone}, 0, 70);
  ASSERT_TRUE(first.Flush().ok());
  auto r = second.Flush();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->match_reused);
  ASSERT_TRUE(lone.Flush().ok());

  // Wave 2 flips leadership: `second` flushes first, so it must
  // materialize a build side from the adopted state and lead the build;
  // `first` adopts in turn. Repeat with an update + removal wave so the
  // reconstruction is exercised on every state transition kind.
  const std::vector<std::pair<size_t, size_t>> waves = {{70, 130},
                                                        {130, 200}};
  for (const auto& [begin, end] : waves) {
    UpsertRange({&first, &second, &lone}, begin, end);
    auto rs = second.Flush();
    auto rf = first.Flush();
    ASSERT_TRUE(rs.ok() && rf.ok());
    EXPECT_FALSE(rs->match_reused);
    EXPECT_TRUE(rf->match_reused);
    ASSERT_TRUE(lone.Flush().ok());
    ExpectSameState(first, lone);
    ExpectSameState(second, lone);
    ExpectSameHandles(first, lone);
    ExpectSameHandles(second, lone);
  }
  for (MatchSession* session : {&first, &second, &lone}) {
    for (size_t i = 10; i < 35; ++i) {
      Tuple t = data_.instance.right().tuple(i);
      t.set_value(0, t.value(0) + "z");
      ASSERT_TRUE(session->Upsert(1, std::move(t)).ok());
    }
    for (size_t i = 50; i < 62; ++i) {
      ASSERT_TRUE(
          session->Remove(0, data_.instance.left().tuple(i).id()).ok());
    }
  }
  auto rs = second.Flush();
  auto rf = first.Flush();
  ASSERT_TRUE(rs.ok() && rf.ok());
  EXPECT_FALSE(rs->match_reused);
  EXPECT_TRUE(rf->match_reused);
  ASSERT_TRUE(lone.Flush().ok());
  ExpectSameState(first, lone);
  ExpectSameState(second, lone);
  ExpectSameHandles(first, lone);
  ExpectSameHandles(second, lone);
}

TEST_F(ApiCatalogTest, DivergedSessionBuildsPrivateMatchState) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok());
  auto catalog = std::make_shared<candidate::IndexCatalog>();
  SessionOptions shared;
  shared.catalog = catalog;
  shared.corpus_id = "stream";
  MatchSession a(*plan, shared);
  MatchSession b(*plan, shared);

  UpsertRange({&a, &b}, 0, 50);
  ASSERT_TRUE(a.Flush().ok());
  auto rb = b.Flush();
  ASSERT_TRUE(rb.ok());
  EXPECT_TRUE(rb->match_reused);

  // b diverges: different delta → different transition key → b leads a
  // private build of its own state instead of adopting a's.
  UpsertRange({&a}, 50, 100);
  UpsertRange({&b}, 50, 90);
  ASSERT_TRUE(a.Flush().ok());
  rb = b.Flush();
  ASSERT_TRUE(rb.ok());
  EXPECT_FALSE(rb->match_reused);

  // Once diverged, their base states differ: identical future deltas no
  // longer share, but each session stays exactly as correct as one-shot
  // execution over its own corpus.
  UpsertRange({&a, &b}, 100, 140);
  auto ra = a.Flush();
  rb = b.Flush();
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_FALSE(ra->match_reused);
  EXPECT_FALSE(rb->match_reused);
  for (MatchSession* session : {&a, &b}) {
    auto oneshot = Executor(*plan).Run(session->Corpus());
    ASSERT_TRUE(oneshot.ok());
    EXPECT_EQ(SortedPairs(session->Matches()), SortedPairs(oneshot->matches));
  }
}

TEST_F(ApiCatalogTest, EmptyFlushesDoNotDesynchronizeSharing) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok());
  auto catalog = std::make_shared<candidate::IndexCatalog>();
  SessionOptions shared;
  shared.catalog = catalog;
  shared.corpus_id = "stream";
  MatchSession a(*plan, shared);
  MatchSession b(*plan, shared);

  UpsertRange({&a, &b}, 0, 40);
  ASSERT_TRUE(a.Flush().ok());
  ASSERT_TRUE(b.Flush().ok());

  // b issues extra empty flushes (a polling loop, a defensive flush):
  // they must not advance its version or churn the transition memo.
  auto empty = b.Flush();
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->upserted, 0u);
  EXPECT_FALSE(empty->index_reused);
  ASSERT_TRUE(b.Flush().ok());
  EXPECT_EQ(a.indexes(), b.indexes());

  UpsertRange({&a, &b}, 40, 80);
  ASSERT_TRUE(a.Flush().ok());
  auto rb = b.Flush();
  ASSERT_TRUE(rb.ok());
  EXPECT_TRUE(rb->index_reused) << "empty flushes broke snapshot sharing";
  ExpectSameState(a, b);
}

TEST_F(ApiCatalogTest, DivergingSessionFallsBackToPrivateBuilds) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok());
  auto catalog = std::make_shared<candidate::IndexCatalog>();
  SessionOptions shared;
  shared.catalog = catalog;
  shared.corpus_id = "stream";
  MatchSession a(*plan, shared);
  MatchSession b(*plan, shared);

  UpsertRange({&a, &b}, 0, 50);
  ASSERT_TRUE(a.Flush().ok());
  auto rb = b.Flush();
  ASSERT_TRUE(rb.ok());
  EXPECT_TRUE(rb->index_reused);

  // b diverges: different delta → different fingerprint → private build,
  // still correct against its own one-shot.
  UpsertRange({&a}, 50, 100);
  UpsertRange({&b}, 50, 90);
  ASSERT_TRUE(a.Flush().ok());
  rb = b.Flush();
  ASSERT_TRUE(rb.ok());
  EXPECT_FALSE(rb->index_reused);

  for (MatchSession* session : {&a, &b}) {
    auto oneshot = Executor(*plan).Run(session->Corpus());
    ASSERT_TRUE(oneshot.ok());
    EXPECT_EQ(SortedPairs(session->Matches()), SortedPairs(oneshot->matches));
  }
}

TEST_F(ApiCatalogTest, ConcurrentFlushesStaySharedAndIdentical) {
  auto plan = BuildPlan();
  ASSERT_TRUE(plan.ok());
  auto catalog = std::make_shared<candidate::IndexCatalog>();
  SessionOptions shared;
  shared.catalog = catalog;
  shared.corpus_id = "stream";
  shared.num_threads = 2;
  MatchSession a(*plan, shared);
  MatchSession b(*plan, shared);
  MatchSession lone(*plan);

  const std::vector<std::pair<size_t, size_t>> waves = {
      {0, 50}, {50, 110}, {110, 180}, {180, 270}};
  size_t reused_flushes = 0;
  for (const auto& [begin, end] : waves) {
    UpsertRange({&a, &b, &lone}, begin, end);
    IngestReport ra;
    IngestReport rb;
    // Both sessions flush the same delta at once: the entry lock makes
    // one of them build and the other adopt, in either order.
    std::thread ta([&] { ra = *a.Flush(); });
    std::thread tb([&] { rb = *b.Flush(); });
    ta.join();
    tb.join();
    ASSERT_TRUE(lone.Flush().ok());
    EXPECT_TRUE(ra.index_reused != rb.index_reused)
        << "exactly one of two concurrent identical flushes should adopt";
    EXPECT_TRUE(ra.match_reused != rb.match_reused)
        << "exactly one should adopt the published match state";
    EXPECT_EQ((ra.match_reused ? ra : rb).pairs_evaluated, 0u);
    reused_flushes += (ra.index_reused ? 1 : 0) + (rb.index_reused ? 1 : 0);
    ExpectSameState(a, lone);
    ExpectSameState(b, lone);
    EXPECT_EQ(a.indexes(), b.indexes());
  }
  EXPECT_EQ(reused_flushes, waves.size());
}

TEST_F(ApiCatalogTest, PlanFingerprintSeparatesCatalogEntries) {
  auto plan = BuildPlan();
  PlanOptions other_options;
  other_options.window_size = 6;
  auto other_plan = BuildPlan(other_options);
  ASSERT_TRUE(plan.ok() && other_plan.ok());
  EXPECT_EQ(PlanFingerprint(**plan), PlanFingerprint(**plan));
  EXPECT_NE(PlanFingerprint(**plan), PlanFingerprint(**other_plan));

  // Different plans on one catalog must not share snapshots even under
  // the same corpus id.
  auto catalog = std::make_shared<candidate::IndexCatalog>();
  SessionOptions shared;
  shared.catalog = catalog;
  shared.corpus_id = "stream";
  MatchSession a(*plan, shared);
  MatchSession b(*other_plan, shared);
  UpsertRange({&a, &b}, 0, 40);
  auto ra = a.Flush();
  auto rb = b.Flush();
  ASSERT_TRUE(ra.ok() && rb.ok());
  EXPECT_FALSE(ra->index_reused);
  EXPECT_FALSE(rb->index_reused);
  EXPECT_EQ(catalog->num_entries(), 2u);
}

}  // namespace
}  // namespace mdmatch::api
