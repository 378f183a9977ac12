// Tests for the sorted-neighborhood matcher (paper Exp-3 substrate) and
// its interplay with RCK-derived rules and keys.

#include "candidate/sorted_neighborhood.h"

#include <gtest/gtest.h>

#include "core/find_rcks.h"
#include "datagen/credit_billing.h"
#include "match/evaluation.h"
#include "match/hs_rules.h"

namespace mdmatch::match {
namespace {

using candidate::SnOptions;
using candidate::SnResult;
using candidate::SortedNeighborhood;
using candidate::SortKeysFromRules;

class SnTest : public testing::Test {
 protected:
  void SetUp() override {
    datagen::CreditBillingOptions options;
    options.num_base = 400;
    options.seed = 21;
    data_ = datagen::GenerateCreditBilling(options, &ops_);
    keys_ = StandardWindowKeys(data_.pair);
  }
  sim::SimOpRegistry ops_;
  datagen::CreditBillingData data_;
  std::vector<KeyFunction> keys_;
};

TEST_F(SnTest, MatchesAreSubsetOfCandidates) {
  auto rules = HernandezStolfoRules(data_.pair, &ops_);
  SnResult result = SortedNeighborhood(data_.instance, ops_, keys_, rules);
  EXPECT_LE(result.matches.size(), result.candidates.size());
  for (const auto& [l, r] : result.matches.pairs()) {
    EXPECT_TRUE(result.candidates.Contains(l, r));
  }
  EXPECT_EQ(result.comparisons, result.candidates.size());
}

TEST_F(SnTest, HsRulesAchieveReasonableQuality) {
  auto rules = HernandezStolfoRules(data_.pair, &ops_);
  SnResult result = SortedNeighborhood(data_.instance, ops_, keys_, rules);
  MatchQuality q = Evaluate(result.matches, data_.instance);
  EXPECT_GT(q.precision, 0.6);
  EXPECT_GT(q.recall, 0.3);
}

TEST_F(SnTest, RckRulesBeatOrMatchHsRules) {
  auto hs = HernandezStolfoRules(data_.pair, &ops_);
  QualityModel quality;
  quality.EstimateLengthsFromData(data_.instance, data_.mds, data_.target);
  FindRcksOptions options;
  options.m = 10;
  FindRcksResult rcks =
      FindRcks(data_.pair, ops_, data_.mds, data_.target, options, &quality);
  // The paper's SNrck: the union of the top five RCKs, with the θ = 0.8
  // similarity test applied to value comparisons at match time.
  std::vector<MatchRule> rck_rules(
      rcks.rcks.begin(),
      rcks.rcks.begin() + std::min<size_t>(rcks.rcks.size(), 5));
  rck_rules = RelaxRulesForMatching(rck_rules, ops_.Dl(0.8));

  SnResult hs_result = SortedNeighborhood(data_.instance, ops_, keys_, hs);
  SnResult rck_result =
      SortedNeighborhood(data_.instance, ops_, keys_, rck_rules);
  MatchQuality hs_q = Evaluate(hs_result.matches, data_.instance);
  MatchQuality rck_q = Evaluate(rck_result.matches, data_.instance);
  // The deduced keys must not lose to the hand rules (the paper reports
  // SNrck consistently outperforming SN in precision and recall).
  EXPECT_GE(rck_q.f1 + 0.02, hs_q.f1);
  EXPECT_GE(rck_q.recall + 0.02, hs_q.recall);
}

TEST_F(SnTest, LargerWindowFindsMoreCandidates) {
  auto rules = HernandezStolfoRules(data_.pair, &ops_);
  SnOptions small{4}, large{16};
  SnResult a = SortedNeighborhood(data_.instance, ops_, keys_, rules, small);
  SnResult b = SortedNeighborhood(data_.instance, ops_, keys_, rules, large);
  EXPECT_LT(a.candidates.size(), b.candidates.size());
  EXPECT_LE(a.matches.size(), b.matches.size());
}

TEST_F(SnTest, MorePassesImproveRecall) {
  auto rules = HernandezStolfoRules(data_.pair, &ops_);
  SnResult one = SortedNeighborhood(data_.instance, ops_,
                                    {keys_[0]}, rules);
  SnResult all = SortedNeighborhood(data_.instance, ops_, keys_, rules);
  MatchQuality q1 = Evaluate(one.matches, data_.instance);
  MatchQuality q3 = Evaluate(all.matches, data_.instance);
  EXPECT_GE(q3.recall, q1.recall);
}

TEST_F(SnTest, NoPassesNoResults) {
  auto rules = HernandezStolfoRules(data_.pair, &ops_);
  SnResult result = SortedNeighborhood(data_.instance, ops_, {}, rules);
  EXPECT_EQ(result.matches.size(), 0u);
  EXPECT_EQ(result.candidates.size(), 0u);
}

TEST_F(SnTest, SortKeysFromRulesBuildsPasses) {
  QualityModel quality;
  FindRcksOptions options;
  options.m = 5;
  FindRcksResult rcks =
      FindRcks(data_.pair, ops_, data_.mds, data_.target, options, &quality);
  std::vector<MatchRule> rules(rcks.rcks.begin(), rcks.rcks.end());
  auto keys = SortKeysFromRules(rules, data_.pair, 3);
  EXPECT_LE(keys.size(), 3u);
  EXPECT_FALSE(keys.empty());
  for (const auto& k : keys) EXPECT_FALSE(k.empty());
}

}  // namespace
}  // namespace mdmatch::match
