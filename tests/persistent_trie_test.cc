// Property tests for the persistent structures behind O(delta)
// generation publishing: util::PersistentTrie / util::FrozenTrie and
// match::PersistentPairSet / match::FrozenPairSet. The contract under
// test is snapshot isolation — a frozen snapshot never changes, no
// matter what its owner (or an adopting owner) does afterwards — checked
// against std::map / std::set references over randomized op streams.

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "match/persistent_pairs.h"
#include "util/persistent_trie.h"

namespace mdmatch {
namespace {

using util::FrozenTrie;
using util::PersistentTrie;

std::map<uint64_t, int> Materialize(const FrozenTrie<int>& frozen) {
  std::map<uint64_t, int> out;
  frozen.ForEach([&](uint64_t key, const int& value) { out[key] = value; });
  return out;
}

TEST(PersistentTrieTest, SetGetEraseMatchesReference) {
  std::mt19937_64 rng(2024);
  PersistentTrie<int> trie;
  std::map<uint64_t, int> ref;
  for (int step = 0; step < 4000; ++step) {
    const uint64_t key = rng() % 512;
    switch (rng() % 4) {
      case 0:
      case 1: {
        const int value = static_cast<int>(rng() % 1000);
        EXPECT_EQ(trie.Set(key, value), ref.insert_or_assign(key, value).second);
        break;
      }
      case 2:
        EXPECT_EQ(trie.Erase(key), ref.erase(key) != 0);
        break;
      default: {
        const int* got = trie.Get(key);
        auto it = ref.find(key);
        ASSERT_EQ(got != nullptr, it != ref.end()) << "key " << key;
        if (got != nullptr) {
          EXPECT_EQ(*got, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(trie.size(), ref.size());
  }
  // Full sweep, and ForEach yields ascending keys matching the reference.
  std::vector<std::pair<uint64_t, int>> walked;
  trie.ForEach([&](uint64_t key, const int& value) {
    walked.emplace_back(key, value);
  });
  EXPECT_TRUE(std::equal(walked.begin(), walked.end(), ref.begin(), ref.end(),
                         [](const auto& a, const auto& b) {
                           return a.first == b.first && a.second == b.second;
                         }));
  EXPECT_EQ(walked.size(), ref.size());
}

TEST(PersistentTrieTest, RootGrowsToCoverSparseWideKeys) {
  PersistentTrie<int> trie;
  const std::vector<uint64_t> keys = {0,       63,      64,        4095,
                                      1 << 20, 1ull << 40, ~uint64_t{0}};
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(trie.Set(keys[i], static_cast<int>(i)));
    // Earlier keys survive each upward growth of the root.
    for (size_t j = 0; j <= i; ++j) {
      const int* got = trie.Get(keys[j]);
      ASSERT_NE(got, nullptr) << "key " << keys[j] << " after inserting "
                              << keys[i];
      EXPECT_EQ(*got, static_cast<int>(j));
    }
  }
  EXPECT_EQ(trie.Get(1), nullptr);
  EXPECT_EQ(trie.Get((1ull << 40) + 1), nullptr);
}

TEST(PersistentTrieTest, FrozenSnapshotsAreImmutableUnderOwnerMutation) {
  std::mt19937_64 rng(7);
  PersistentTrie<int> trie;
  std::map<uint64_t, int> ref;
  std::vector<std::pair<FrozenTrie<int>, std::map<uint64_t, int>>> snapshots;
  for (int step = 0; step < 3000; ++step) {
    const uint64_t key = rng() % 300;
    if (rng() % 3 == 0) {
      trie.Erase(key);
      ref.erase(key);
    } else {
      const int value = static_cast<int>(rng() % 100);
      trie.Set(key, value);
      ref[key] = value;
    }
    if (step % 250 == 0) snapshots.emplace_back(trie.Freeze(), ref);
    if (rng() % 5 == 0 && !ref.empty()) {
      // In-place value mutation must not reach published snapshots either.
      const uint64_t existing = ref.begin()->first;
      *trie.GetMutable(existing) += 1;
      ref[existing] += 1;
    }
  }
  for (const auto& [frozen, expected] : snapshots) {
    EXPECT_EQ(Materialize(frozen), expected);
    EXPECT_EQ(frozen.size(), expected.size());
  }
}

TEST(PersistentTrieTest, FromFrozenAdoptsWithoutDisturbingTheSnapshot) {
  PersistentTrie<int> original;
  for (uint64_t key = 0; key < 200; ++key) {
    original.Set(key * 3, static_cast<int>(key));
  }
  FrozenTrie<int> frozen = original.Freeze();
  const std::map<uint64_t, int> before = Materialize(frozen);

  // Two independent continuations from one snapshot, plus the original
  // owner mutating on: three divergent futures, one immutable past.
  PersistentTrie<int> fork_a = PersistentTrie<int>::FromFrozen(frozen);
  PersistentTrie<int> fork_b = PersistentTrie<int>::FromFrozen(frozen);
  for (uint64_t key = 0; key < 200; ++key) {
    fork_a.Set(key * 3, -1);
    fork_b.Erase(key * 3);
    original.Set(key * 3 + 1, 7);
  }
  EXPECT_EQ(Materialize(frozen), before);
  EXPECT_EQ(fork_b.size(), 0u);
  EXPECT_EQ(*fork_a.Get(3), -1);
  EXPECT_EQ(original.size(), 400u);
}

TEST(PersistentTrieTest, ConcurrentFrozenReadersDuringOwnerWrites) {
  PersistentTrie<int> trie;
  for (uint64_t key = 0; key < 500; ++key) trie.Set(key, static_cast<int>(key));
  FrozenTrie<int> frozen = trie.Freeze();

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&frozen] {
      for (int round = 0; round < 200; ++round) {
        size_t sum = 0;
        frozen.ForEach([&](uint64_t, const int& value) {
          sum += static_cast<size_t>(value);
        });
        EXPECT_EQ(sum, 500u * 499u / 2);
        for (uint64_t key = 0; key < 500; key += 17) {
          const int* got = frozen.Get(key);
          ASSERT_NE(got, nullptr);
          EXPECT_EQ(*got, static_cast<int>(key));
        }
      }
    });
  }
  // The owner keeps mutating (and re-freezing) while readers walk the
  // old snapshot — the TSan job runs this suite.
  for (int round = 0; round < 50; ++round) {
    for (uint64_t key = 0; key < 500; key += 3) {
      trie.Set(key, round);
      trie.Erase(key + 1);
    }
    FrozenTrie<int> next = trie.Freeze();
    EXPECT_EQ(next.size(), trie.size());
  }
  for (std::thread& reader : readers) reader.join();
}

using PairRef = std::set<std::pair<uint32_t, uint32_t>>;

PairRef MaterializePairs(const match::FrozenPairSet& frozen) {
  PairRef out;
  frozen.ForEach([&](uint32_t l, uint32_t r) { out.emplace(l, r); });
  return out;
}

TEST(PersistentPairsTest, AddEraseFreezeMatchesReference) {
  std::mt19937_64 rng(99);
  match::PersistentPairSet set;
  PairRef ref;
  std::vector<std::pair<match::FrozenPairSet, PairRef>> snapshots;
  for (int step = 0; step < 5000; ++step) {
    const uint32_t l = static_cast<uint32_t>(rng() % 60);
    const uint32_t r = static_cast<uint32_t>(rng() % 60);
    if (rng() % 3 == 0) {
      EXPECT_EQ(set.Erase(l, r), ref.erase({l, r}) != 0);
    } else {
      EXPECT_EQ(set.Add(l, r), ref.emplace(l, r).second);
    }
    EXPECT_EQ(set.Contains(l, r), ref.count({l, r}) != 0);
    ASSERT_EQ(set.size(), ref.size());
    if (step % 500 == 0) snapshots.emplace_back(set.Freeze(), ref);
  }
  for (const auto& [frozen, expected] : snapshots) {
    EXPECT_EQ(MaterializePairs(frozen), expected);
    EXPECT_EQ(frozen.size(), expected.size());
  }
}

TEST(PersistentPairsTest, TakeDeltaNetsChurnWithinAWindow) {
  match::PersistentPairSet set;
  set.Add(1, 1);
  set.Add(2, 2);
  match::FrozenPairSet base = set.Freeze();
  std::vector<std::pair<uint32_t, uint32_t>> added;
  std::vector<std::pair<uint32_t, uint32_t>> retired;
  set.TakeDelta(&added, &retired);  // discard the pre-base journal

  // Churn that must net out: add+erase, erase+re-add, erase+add+erase.
  set.Add(3, 3);
  set.Erase(3, 3);          // (3,3) never publishes
  set.Erase(1, 1);
  set.Add(1, 1);            // (1,1) survives unchanged
  set.Erase(2, 2);
  set.Add(2, 2);
  set.Erase(2, 2);          // (2,2) nets to a single retire
  set.Add(4, 4);            // plain add
  set.TakeDelta(&added, &retired);
  EXPECT_EQ(added, (std::vector<std::pair<uint32_t, uint32_t>>{{4, 4}}));
  EXPECT_EQ(retired, (std::vector<std::pair<uint32_t, uint32_t>>{{2, 2}}));

  // Replaying the netted delta on the base snapshot yields the new state.
  PairRef replay = MaterializePairs(base);
  for (const auto& pair : retired) EXPECT_EQ(replay.erase(pair), 1u);
  for (const auto& pair : added) EXPECT_TRUE(replay.insert(pair).second);
  EXPECT_EQ(replay, MaterializePairs(set.Freeze()));

  // The journal was consumed: an immediate second take is empty.
  set.TakeDelta(&added, &retired);
  EXPECT_TRUE(added.empty());
  EXPECT_TRUE(retired.empty());
}

TEST(PersistentPairsTest, DeltaReplayMatchesSnapshotsOverRandomStreams) {
  std::mt19937_64 rng(31337);
  match::PersistentPairSet set;
  PairRef replay;  // base snapshot advanced only by TakeDelta output
  for (int window = 0; window < 40; ++window) {
    for (int op = 0; op < 120; ++op) {
      const uint32_t l = static_cast<uint32_t>(rng() % 40);
      const uint32_t r = static_cast<uint32_t>(rng() % 40);
      if (rng() % 3 == 0) {
        set.Erase(l, r);
      } else {
        set.Add(l, r);
      }
    }
    match::FrozenPairSet frozen = set.Freeze();
    std::vector<std::pair<uint32_t, uint32_t>> added;
    std::vector<std::pair<uint32_t, uint32_t>> retired;
    set.TakeDelta(&added, &retired);
    for (const auto& pair : retired) ASSERT_EQ(replay.erase(pair), 1u);
    for (const auto& pair : added) ASSERT_TRUE(replay.insert(pair).second);
    ASSERT_EQ(replay, MaterializePairs(frozen)) << "window " << window;
  }
}

TEST(PersistentPairsTest, FromFrozenContinuesWithoutDisturbingSnapshot) {
  match::PersistentPairSet set;
  for (uint32_t i = 0; i < 100; ++i) set.Add(i, i + 1);
  match::FrozenPairSet frozen = set.Freeze();
  const PairRef before = MaterializePairs(frozen);

  match::PersistentPairSet fork = match::PersistentPairSet::FromFrozen(frozen);
  for (uint32_t i = 0; i < 100; i += 2) fork.Erase(i, i + 1);
  for (uint32_t i = 200; i < 220; ++i) fork.Add(i, i);
  EXPECT_EQ(MaterializePairs(frozen), before);
  EXPECT_EQ(fork.size(), 70u);
  EXPECT_FALSE(fork.Contains(0, 1));
  EXPECT_TRUE(frozen.Contains(0, 1));

  // The fork's journal starts empty: only post-adoption churn publishes.
  std::vector<std::pair<uint32_t, uint32_t>> added;
  std::vector<std::pair<uint32_t, uint32_t>> retired;
  fork.TakeDelta(&added, &retired);
  EXPECT_EQ(added.size(), 20u);
  EXPECT_EQ(retired.size(), 50u);
}

}  // namespace
}  // namespace mdmatch
