// Tests for the matching substrate: comparison vectors, pair sets,
// evaluation metrics, key functions, blocking and windowing.

#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <set>
#include <utility>
#include <vector>

#include "datagen/credit_billing.h"
#include "match/blocking.h"
#include "match/comparison.h"
#include "match/evaluation.h"
#include "match/hs_rules.h"
#include "match/key_function.h"
#include "match/match_result.h"
#include "match/windowing.h"

namespace mdmatch::match {
namespace {

class MatchSubstrateTest : public testing::Test {
 protected:
  void SetUp() override {
    ops_ = sim::SimOpRegistry::Default();
    ex_ = datagen::MakeExample11(&ops_);
  }

  Conjunct C(const char* l, const char* op, const char* r) {
    return Conjunct{
        {*ex_.pair.left().Find(l), *ex_.pair.right().Find(r)},
        *ops_.Find(op)};
  }

  sim::SimOpRegistry ops_;
  datagen::Example11Data ex_;
};

// ---------------------------------------------------------------- PairSet

TEST(PairSetTest, AddDeduplicates) {
  PairSet s;
  EXPECT_TRUE(s.Add(1, 2));
  EXPECT_FALSE(s.Add(1, 2));
  EXPECT_TRUE(s.Add(2, 1));  // ordered pair: (2,1) != (1,2)
  EXPECT_EQ(s.size(), 2u);
  EXPECT_TRUE(s.Contains(1, 2));
  EXPECT_FALSE(s.Contains(3, 3));
}

TEST(PairSetTest, MergeUnions) {
  PairSet a, b;
  a.Add(1, 1);
  b.Add(1, 1);
  b.Add(2, 2);
  a.Merge(b);
  EXPECT_EQ(a.size(), 2u);
}

TEST(PairSetTest, PairsPreserveInsertionOrder) {
  PairSet s;
  s.Add(5, 6);
  s.Add(1, 2);
  ASSERT_EQ(s.pairs().size(), 2u);
  EXPECT_EQ(s.pairs()[0], (std::pair<uint32_t, uint32_t>{5, 6}));
  EXPECT_EQ(s.pairs()[1], (std::pair<uint32_t, uint32_t>{1, 2}));
}

// An independent PairSet model: a std::set seen-set plus the vector of
// first insertions.
struct ReferencePairSet {
  bool Add(uint32_t l, uint32_t r) {
    if (!seen.insert({l, r}).second) return false;
    pairs.emplace_back(l, r);
    return true;
  }
  bool Contains(uint32_t l, uint32_t r) const { return seen.count({l, r}); }

  std::set<std::pair<uint32_t, uint32_t>> seen;
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
};

void ExpectSame(const PairSet& s, const ReferencePairSet& ref) {
  ASSERT_EQ(s.size(), ref.pairs.size());
  EXPECT_EQ(s.empty(), ref.pairs.empty());
  EXPECT_EQ(s.pairs(), ref.pairs);
  for (const auto& [l, r] : ref.pairs) ASSERT_TRUE(s.Contains(l, r));
}

// Adds the same pair to both and checks the return values agree.
void AddBoth(PairSet* s, ReferencePairSet* ref, uint32_t l, uint32_t r) {
  const bool expected = ref->Add(l, r);
  ASSERT_EQ(s->Add(l, r), expected) << "(" << l << "," << r << ")";
}

constexpr uint32_t kMax = std::numeric_limits<uint32_t>::max();

// A seeded Add stream: clustered runs (one left, consecutive rights, as
// windowing emits), re-adds of earlier pairs, uniform keys, and the four
// boundary keys, growing through several table resizes.
void RandomStream(uint64_t seed, size_t target, PairSet* s,
                  ReferencePairSet* ref) {
  std::mt19937_64 rng(seed);
  const std::pair<uint32_t, uint32_t> boundary[] = {
      {0, 0}, {0, kMax}, {kMax, 0}, {kMax, kMax}};
  while (ref->pairs.size() < target) {
    switch (rng() % 4) {
      case 0: {  // clustered run, possibly wrapping past kMax
        const uint32_t l = static_cast<uint32_t>(rng() % 64);
        uint32_t r = rng() % 2 ? static_cast<uint32_t>(rng() % 256)
                               : kMax - static_cast<uint32_t>(rng() % 8);
        for (size_t n = 1 + rng() % 48; n > 0; --n) {
          AddBoth(s, ref, l, r++);
        }
        break;
      }
      case 1:  // heavy duplication
        for (size_t n = 1 + rng() % 16; n > 0 && !ref->pairs.empty(); --n) {
          const auto [l, r] = ref->pairs[rng() % ref->pairs.size()];
          AddBoth(s, ref, l, r);
        }
        break;
      case 2:
        AddBoth(s, ref, static_cast<uint32_t>(rng()),
                static_cast<uint32_t>(rng()));
        break;
      default:
        if (rng() % 32 == 0) {
          const auto [l, r] = boundary[rng() % 4];
          AddBoth(s, ref, l, r);
        }
        break;
    }
  }
}

TEST(PairSetTest, PropertyMatchesReferenceOverRandomStreams) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    PairSet s;
    ReferencePairSet ref;
    ExpectSame(s, ref);
    // 16 initial slots, half full: ~12 doublings to hold 20k pairs.
    RandomStream(seed, 20000, &s, &ref);
    ExpectSame(s, ref);

    // Absent keys: neighbours of present ones (the clustered case) and
    // uniform ones, answered as the reference answers them.
    std::mt19937_64 rng(seed + 1000);
    for (size_t n = 0; n < 20000; ++n) {
      const auto [l, r] = ref.pairs[rng() % ref.pairs.size()];
      const uint32_t ql = rng() % 2 ? l : l + 1;
      const uint32_t qr = r + static_cast<uint32_t>(rng() % 3) - 1;
      ASSERT_EQ(s.Contains(ql, qr), ref.Contains(ql, qr));
      const uint32_t ul = static_cast<uint32_t>(rng());
      const uint32_t ur = static_cast<uint32_t>(rng());
      ASSERT_EQ(s.Contains(ul, ur), ref.Contains(ul, ur));
    }
  }
}

TEST(PairSetTest, AbsentKeysAnswerAtEveryFillLevel) {
  // A lookup probes until a free slot; checking after every Add catches a
  // table allowed to fill up at any of its capacities.
  PairSet s;
  for (uint32_t r = 0; r < 4096; ++r) {
    ASSERT_TRUE(s.Add(3, r));
    ASSERT_FALSE(s.Contains(4, r)) << r;
    ASSERT_FALSE(s.Contains(kMax, kMax)) << r;
  }
}

TEST(PairSetTest, AllOnesKeyIsAnOrdinaryMember) {
  // PairKey(MAX, MAX) is the table's empty-slot marker; as a pair it must
  // behave like any other, before and across growth.
  PairSet s;
  ReferencePairSet ref;
  EXPECT_FALSE(s.Contains(kMax, kMax));
  AddBoth(&s, &ref, 7, 7);
  EXPECT_FALSE(s.Contains(kMax, kMax));
  AddBoth(&s, &ref, kMax, kMax);
  AddBoth(&s, &ref, kMax, kMax);
  for (uint32_t r = 0; r < 1000; ++r) AddBoth(&s, &ref, kMax, r);
  AddBoth(&s, &ref, kMax, kMax);
  EXPECT_TRUE(s.Contains(kMax, kMax));
  EXPECT_FALSE(s.Contains(kMax, kMax - 1));
  ExpectSame(s, ref);
  EXPECT_EQ(s.pairs()[1], (std::pair<uint32_t, uint32_t>{kMax, kMax}));

  PairSet only;
  EXPECT_TRUE(only.Add(kMax, kMax));
  EXPECT_FALSE(only.Add(kMax, kMax));
  EXPECT_EQ(only.size(), 1u);
  EXPECT_FALSE(only.Contains(0, 0));
}

TEST(PairSetTest, MergeMatchesReferenceIncludingSelfMerge) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    PairSet a, b;
    ReferencePairSet ref_a, ref_b;
    RandomStream(seed, 3000, &a, &ref_a);
    RandomStream(seed + 100, 5000, &b, &ref_b);
    // Overlap: b also holds a prefix of a's pairs.
    for (size_t i = 0; i < ref_a.pairs.size(); i += 3) {
      const auto [l, r] = ref_a.pairs[i];
      AddBoth(&b, &ref_b, l, r);
    }

    a.Merge(b);
    for (const auto& [l, r] : ref_b.pairs) ref_a.Add(l, r);
    ExpectSame(a, ref_a);
    ExpectSame(b, ref_b);

    a.Merge(a);
    ExpectSame(a, ref_a);
    PairSet empty;
    a.Merge(empty);
    empty.Merge(a);
    ExpectSame(a, ref_a);
    ExpectSame(empty, ref_a);
  }
}

TEST(PairSetTest, CopiesAndMovesStayIndependentAndUsable) {
  PairSet a;
  ReferencePairSet ref_a;
  RandomStream(7, 2000, &a, &ref_a);
  AddBoth(&a, &ref_a, kMax, kMax);

  // Copy construction and assignment: later Adds touch one side only.
  PairSet copy(a);
  ReferencePairSet ref_copy = ref_a;
  PairSet assigned;
  assigned.Add(1, 1);
  assigned = a;
  ReferencePairSet ref_assigned = ref_a;
  RandomStream(8, 3000, &copy, &ref_copy);
  RandomStream(9, 2500, &assigned, &ref_assigned);
  AddBoth(&a, &ref_a, 123456, 654321);
  ExpectSame(a, ref_a);
  ExpectSame(copy, ref_copy);
  ExpectSame(assigned, ref_assigned);

  // Move construction and assignment: the target takes the contents, the
  // source is left empty and keeps working.
  PairSet moved(std::move(copy));
  ExpectSame(moved, ref_copy);
  ReferencePairSet ref_empty;
  ExpectSame(copy, ref_empty);  // NOLINT(bugprone-use-after-move)
  EXPECT_FALSE(copy.Contains(kMax, kMax));
  PairSet move_assigned;
  move_assigned.Add(2, 2);
  move_assigned = std::move(assigned);
  ExpectSame(move_assigned, ref_assigned);
  ExpectSame(assigned, ref_empty);  // NOLINT(bugprone-use-after-move)

  ReferencePairSet ref_reused;
  RandomStream(10, 1500, &copy, &ref_reused);
  AddBoth(&copy, &ref_reused, kMax, kMax);
  AddBoth(&assigned, &ref_empty, kMax, kMax);
  AddBoth(&assigned, &ref_empty, 0, 0);
  ExpectSame(copy, ref_reused);
  ExpectSame(assigned, ref_empty);
  ExpectSame(moved, ref_copy);
  ExpectSame(move_assigned, ref_assigned);
  ExpectSame(a, ref_a);
}

// ------------------------------------------------------- ComparisonVector

TEST_F(MatchSubstrateTest, FromKeyAndUnionOfKeys) {
  RelativeKey k1({C("email", "=", "email"), C("tel", "=", "phn")});
  RelativeKey k2({C("email", "=", "email"), C("addr", "=", "post")});
  ComparisonVector v1 = ComparisonVector::FromKey(k1);
  EXPECT_EQ(v1.size(), 2u);
  ComparisonVector u = ComparisonVector::UnionOfKeys({k1, k2}, 5);
  EXPECT_EQ(u.size(), 3u);  // email deduplicated
  ComparisonVector top1 = ComparisonVector::UnionOfKeys({k1, k2}, 1);
  EXPECT_EQ(top1.size(), 2u);
}

TEST_F(MatchSubstrateTest, AllWithOpBuildsFullTargetVector) {
  ComparisonVector v = ComparisonVector::AllWithOp(ex_.target);
  EXPECT_EQ(v.size(), ex_.target.size());
  for (const auto& e : v.elements()) {
    EXPECT_EQ(e.op, sim::SimOpRegistry::kEq);
  }
}

TEST_F(MatchSubstrateTest, ComparePatternBitsAndAllAgree) {
  ComparisonVector v(
      {C("email", "=", "email"), C("tel", "=", "phn"), C("LN", "=", "LN")});
  const Tuple& t1 = ex_.instance.left().tuple(0);
  const Tuple& t6 = ex_.instance.right().tuple(3);
  uint32_t pattern = v.ComparePattern(ops_, t1, t6);
  // t1 vs t6: email agrees, tel agrees, LN differs (Clifford vs Clivord).
  EXPECT_TRUE(pattern & 1u);
  EXPECT_TRUE(pattern & 2u);
  EXPECT_FALSE(pattern & 4u);
  EXPECT_FALSE(v.AllAgree(ops_, t1, t6));

  ComparisonVector v2({C("email", "=", "email"), C("tel", "=", "phn")});
  EXPECT_TRUE(v2.AllAgree(ops_, t1, t6));
}

TEST_F(MatchSubstrateTest, RuleMatchesIsConjunction) {
  MatchRule rule({C("email", "=", "email"), C("tel", "=", "phn")});
  const Tuple& t1 = ex_.instance.left().tuple(0);
  EXPECT_TRUE(RuleMatches(rule, ops_, t1, ex_.instance.right().tuple(3)));
  EXPECT_FALSE(RuleMatches(rule, ops_, t1, ex_.instance.right().tuple(0)));
  EXPECT_TRUE(AnyRuleMatches({rule}, ops_, t1, ex_.instance.right().tuple(3)));
  EXPECT_FALSE(AnyRuleMatches({}, ops_, t1, ex_.instance.right().tuple(3)));
}

TEST_F(MatchSubstrateTest, RelaxKeyReplacesEqualityOnly) {
  sim::SimOpId dl = *ops_.Find("dl@0.80");
  RelativeKey key({C("email", "=", "email"), C("FN", "dl@0.80", "FN")});
  RelativeKey relaxed = RelaxKeyForMatching(key, dl);
  ASSERT_EQ(relaxed.length(), 2u);
  EXPECT_EQ(relaxed.elements()[0].op, dl);
  EXPECT_EQ(relaxed.elements()[1].op, dl);
  // Relaxed rules accept near-equal values a strict rule rejects
  // ("Clifford" vs "Clivord" is 2 DL edits: within the θ = 0.75 allowance
  // of 2 for 8-character strings, but not the θ = 0.8 allowance of 1.6).
  const Tuple& t1 = ex_.instance.left().tuple(0);
  const Tuple& t5 = ex_.instance.right().tuple(2);  // Clivord
  MatchRule strict({C("LN", "=", "LN")});
  EXPECT_FALSE(RuleMatches(strict, ops_, t1, t5));
  EXPECT_FALSE(RuleMatches(RelaxKeyForMatching(strict, dl), ops_, t1, t5));
  EXPECT_TRUE(
      RuleMatches(RelaxKeyForMatching(strict, ops_.Dl(0.75)), ops_, t1, t5));
}

TEST_F(MatchSubstrateTest, RelaxRulesAndVector) {
  sim::SimOpId dl = *ops_.Find("dl@0.80");
  std::vector<MatchRule> rules = {MatchRule({C("email", "=", "email")}),
                                  MatchRule({C("tel", "=", "phn")})};
  auto relaxed = RelaxRulesForMatching(rules, dl);
  ASSERT_EQ(relaxed.size(), 2u);
  EXPECT_EQ(relaxed[0].elements()[0].op, dl);

  ComparisonVector v = ComparisonVector::AllWithOp(ex_.target);
  ComparisonVector rv = RelaxVectorForMatching(v, dl);
  for (const auto& e : rv.elements()) EXPECT_EQ(e.op, dl);
}

// -------------------------------------------------------------- Evaluation

TEST_F(MatchSubstrateTest, CountTruePairsOnExample11) {
  // Entity 1: 1 credit × 4 billing = 4 true pairs; entity 2: no billing.
  EXPECT_EQ(CountTruePairs(ex_.instance), 4u);
  EXPECT_TRUE(IsTruePair(ex_.instance, 0, 0));
  EXPECT_FALSE(IsTruePair(ex_.instance, 1, 0));
}

TEST_F(MatchSubstrateTest, EvaluatePrecisionRecallF1) {
  MatchResult result;
  result.Add(0, 0);  // true
  result.Add(0, 1);  // true
  result.Add(1, 2);  // false (t2 is not the holder of t5)
  MatchQuality q = Evaluate(result, ex_.instance);
  EXPECT_EQ(q.true_positives, 2u);
  EXPECT_EQ(q.found, 3u);
  EXPECT_EQ(q.truth, 4u);
  EXPECT_DOUBLE_EQ(q.precision, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(q.recall, 0.5);
  EXPECT_GT(q.f1, 0.0);
}

TEST_F(MatchSubstrateTest, EvaluateEmptyResult) {
  MatchQuality q = Evaluate(MatchResult{}, ex_.instance);
  EXPECT_DOUBLE_EQ(q.precision, 0.0);
  EXPECT_DOUBLE_EQ(q.recall, 0.0);
  EXPECT_DOUBLE_EQ(q.f1, 0.0);
}

TEST_F(MatchSubstrateTest, EvaluateCandidatesPcAndRr) {
  CandidateSet candidates;
  candidates.Add(0, 0);
  candidates.Add(0, 1);
  candidates.Add(1, 3);
  CandidateQuality q = EvaluateCandidates(candidates, ex_.instance);
  EXPECT_EQ(q.true_in_candidates, 2u);
  EXPECT_DOUBLE_EQ(q.pairs_completeness, 0.5);
  // 2×4 = 8 total pairs; 3 candidates -> RR = 1 - 3/8.
  EXPECT_DOUBLE_EQ(q.reduction_ratio, 1.0 - 3.0 / 8.0);
}

// ------------------------------------------------------------ KeyFunction

TEST_F(MatchSubstrateTest, KeyFunctionRendersBothSides) {
  KeyFunction key({{C("LN", "=", "LN").attrs, false, 0},
                   {C("FN", "=", "FN").attrs, false, 2}});
  const Tuple& t1 = ex_.instance.left().tuple(0);
  const Tuple& t3 = ex_.instance.right().tuple(0);
  EXPECT_EQ(key.Render(t1, 0), "CLIFFORD|MA|");
  EXPECT_EQ(key.Render(t3, 1), "CLIFFORD|MA|");  // Marx -> MA prefix too
}

TEST_F(MatchSubstrateTest, KeyFunctionSoundexEncodes) {
  KeyFunction key({{C("LN", "=", "LN").attrs, true, 0}});
  const Tuple& t1 = ex_.instance.left().tuple(0);
  const Tuple& t5 = ex_.instance.right().tuple(2);  // Clivord
  EXPECT_EQ(key.Render(t1, 0), key.Render(t5, 1));  // same Soundex
}

TEST_F(MatchSubstrateTest, FromKeyElementsSoundexesNameDomains) {
  RelativeKey rck({C("LN", "=", "LN"), C("addr", "=", "post")});
  KeyFunction key = KeyFunction::FromKeyElements(rck, ex_.pair, 2,
                                                 {"fname", "lname"});
  ASSERT_EQ(key.elements().size(), 2u);
  EXPECT_TRUE(key.elements()[0].soundex);   // lname domain
  EXPECT_FALSE(key.elements()[1].soundex);  // address domain
}

TEST_F(MatchSubstrateTest, FromKeyElementsRespectsMaxElems) {
  RelativeKey rck(
      {C("LN", "=", "LN"), C("addr", "=", "post"), C("FN", "=", "FN")});
  KeyFunction key = KeyFunction::FromKeyElements(rck, ex_.pair, 2);
  EXPECT_EQ(key.elements().size(), 2u);
}

// ----------------------------------------------------- blocking/windowing

TEST_F(MatchSubstrateTest, BlockCandidatesGroupByKey) {
  // Block on c#: t1 (111) blocks with t3..t6 (111); t2 (222) with nobody.
  KeyFunction key({{C("c#", "=", "c#").attrs, false, 0}});
  CandidateSet candidates = BlockCandidates(ex_.instance, key);
  EXPECT_EQ(candidates.size(), 4u);
  for (uint32_t r = 0; r < 4; ++r) EXPECT_TRUE(candidates.Contains(0, r));
  CandidateQuality q = EvaluateCandidates(candidates, ex_.instance);
  EXPECT_DOUBLE_EQ(q.pairs_completeness, 1.0);
  EXPECT_DOUBLE_EQ(q.reduction_ratio, 0.5);
}

TEST_F(MatchSubstrateTest, BlockingStats) {
  KeyFunction key({{C("c#", "=", "c#").attrs, false, 0}});
  BlockingStats stats = AnalyzeBlocks(ex_.instance, key);
  EXPECT_EQ(stats.num_blocks, 2u);       // "111" and "222"
  EXPECT_EQ(stats.largest_block, 5u);    // t1 + t3..t6
  EXPECT_DOUBLE_EQ(stats.avg_block, 3.0);
}

TEST_F(MatchSubstrateTest, MultiPassBlockingUnions) {
  KeyFunction by_card({{C("c#", "=", "c#").attrs, false, 0}});
  KeyFunction by_email({{C("email", "=", "email").attrs, false, 0}});
  CandidateSet multi =
      BlockCandidatesMultiPass(ex_.instance, {by_card, by_email});
  EXPECT_GE(multi.size(), BlockCandidates(ex_.instance, by_card).size());
}

TEST_F(MatchSubstrateTest, WindowCandidatesRespectWindowSize) {
  KeyFunction key({{C("LN", "=", "LN").attrs, true, 0}});
  CandidateSet w2 = WindowCandidates(ex_.instance, key, 2);
  CandidateSet w4 = WindowCandidates(ex_.instance, key, 4);
  EXPECT_LE(w2.size(), w4.size());
  // Window of 1 (or 0) yields nothing.
  EXPECT_EQ(WindowCandidates(ex_.instance, key, 1).size(), 0u);
}

TEST_F(MatchSubstrateTest, WindowOnlyEmitsCrossRelationPairs) {
  KeyFunction key({{C("gender", "=", "gender").attrs, false, 0}});
  CandidateSet w = WindowCandidates(ex_.instance, key, 6);
  for (const auto& [l, r] : w.pairs()) {
    EXPECT_LT(l, ex_.instance.left().size());
    EXPECT_LT(r, ex_.instance.right().size());
  }
}

TEST_F(MatchSubstrateTest, FullWindowCoversAllCrossPairs) {
  KeyFunction key({{C("c#", "=", "c#").attrs, false, 0}});
  size_t all = ex_.instance.left().size() + ex_.instance.right().size();
  CandidateSet w = WindowCandidates(ex_.instance, key, all);
  EXPECT_EQ(w.size(), ex_.instance.NumPairs());
  CandidateQuality q = EvaluateCandidates(w, ex_.instance);
  EXPECT_DOUBLE_EQ(q.pairs_completeness, 1.0);
  EXPECT_DOUBLE_EQ(q.reduction_ratio, 0.0);
}

// --------------------------------------------------------------- HS rules

TEST(HsRulesTest, TwentyFiveValidRules) {
  sim::SimOpRegistry ops;
  SchemaPair pair = datagen::MakeCreditBillingSchemas();
  auto rules = HernandezStolfoRules(pair, &ops);
  EXPECT_EQ(rules.size(), 25u);
  for (const auto& rule : rules) {
    EXPECT_FALSE(rule.empty());
    for (const auto& e : rule.elements()) {
      EXPECT_TRUE(pair.left().IsValid(e.attrs.left));
      EXPECT_TRUE(pair.right().IsValid(e.attrs.right));
      EXPECT_TRUE(ops.IsValid(e.op));
    }
  }
}

TEST(HsRulesTest, StandardKeysAndBlockingKey) {
  SchemaPair pair = datagen::MakeCreditBillingSchemas();
  auto keys = StandardWindowKeys(pair);
  EXPECT_EQ(keys.size(), 3u);
  KeyFunction manual = ManualBlockingKey(pair);
  EXPECT_EQ(manual.elements().size(), 3u);
  EXPECT_TRUE(manual.elements()[0].soundex);  // name attribute encoded
}

}  // namespace
}  // namespace mdmatch::match
