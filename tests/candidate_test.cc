// Tests for the candidate-generation subsystem (src/candidate/): the
// order-statistic persistent SortedKeyIndex against a flat-vector
// reference model, snapshot semantics (copies frozen while the original
// advances), the radix permutation sort against stable_sort, the
// single-sort windowing front-end, and IndexSnapshot / IndexCatalog
// version sharing.

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "candidate/block_index.h"
#include "candidate/catalog.h"
#include "candidate/indexed_entry.h"
#include "candidate/snapshot.h"
#include "candidate/sorted_index.h"
#include "candidate/windowing.h"
#include "datagen/credit_billing.h"
#include "match/hs_rules.h"

namespace mdmatch::candidate {
namespace {

// ------------------------------------------------------- SortedKeyIndex

std::vector<IndexedEntry> SortedReference(std::vector<IndexedEntry> entries) {
  std::sort(entries.begin(), entries.end());
  return entries;
}

TEST(SortedKeyIndexTest, InsertRemoveRankAndSelect) {
  SortedKeyIndex index;
  EXPECT_TRUE(index.empty());
  index.Insert({"b", 0, 1});
  index.Insert({"a", 1, 2});
  index.Insert({"c", 0, 3});
  index.Insert({"a", 0, 4});
  ASSERT_EQ(index.size(), 4u);

  // Order: ("a",0,4) ("a",1,2) ("b",0,1) ("c",0,3).
  EXPECT_EQ(index.at(0), (IndexedEntry{"a", 0, 4}));
  EXPECT_EQ(index.at(1), (IndexedEntry{"a", 1, 2}));
  EXPECT_EQ(index.at(2), (IndexedEntry{"b", 0, 1}));
  EXPECT_EQ(index.at(3), (IndexedEntry{"c", 0, 3}));

  EXPECT_EQ(index.LowerBound({"a", 0, 4}), 0u);
  EXPECT_EQ(index.LowerBound({"b", 0, 1}), 2u);
  EXPECT_EQ(index.LowerBound({"bb", 0, 0}), 3u);  // absent: gap position

  EXPECT_TRUE(index.Remove({"b", 0, 1}));
  EXPECT_FALSE(index.Remove({"b", 0, 1}));  // already gone
  EXPECT_FALSE(index.Remove({"zz", 1, 9}));  // never present
  ASSERT_EQ(index.size(), 3u);
  EXPECT_EQ(index.at(2), (IndexedEntry{"c", 0, 3}));
}

TEST(SortedKeyIndexTest, SpanWalksRankRanges) {
  SortedKeyIndex index;
  for (uint32_t i = 0; i < 100; ++i) {
    index.Insert({std::to_string(i % 10) + "-" + std::to_string(i), 0, i});
  }
  const auto all = index.Span(0, index.size());
  ASSERT_EQ(all.size(), 100u);
  for (size_t i = 0; i + 1 < all.size(); ++i) {
    EXPECT_TRUE(*all[i] < *all[i + 1]);
  }
  // Any sub-span equals the same slice of the full walk.
  const auto mid = index.Span(37, 61);
  ASSERT_EQ(mid.size(), 24u);
  for (size_t i = 0; i < mid.size(); ++i) {
    EXPECT_EQ(*mid[i], *all[37 + i]);
    EXPECT_EQ(*mid[i], index.at(37 + i));
  }
  EXPECT_TRUE(index.Span(95, 200).size() == 5u);  // hi clamps to size
  EXPECT_TRUE(index.Span(60, 60).empty());
  EXPECT_TRUE(index.Span(200, 300).empty());
}

TEST(SortedKeyIndexTest, RandomOpsMatchFlatReference) {
  std::mt19937 rng(4711);
  SortedKeyIndex index;
  std::vector<IndexedEntry> reference;  // kept sorted
  uint32_t next_seq = 0;

  for (int round = 0; round < 60; ++round) {
    // A batch of inserts and removes, like one session flush.
    std::vector<IndexedEntry> removes;
    std::vector<IndexedEntry> inserts;
    const size_t num_inserts = rng() % 40;
    for (size_t i = 0; i < num_inserts; ++i) {
      inserts.push_back({std::string(1, 'a' + rng() % 6) +
                             std::string(1, 'a' + rng() % 6),
                         static_cast<uint8_t>(rng() % 2), next_seq++});
    }
    const size_t num_removes = reference.empty() ? 0 : rng() % 10;
    for (size_t i = 0; i < num_removes; ++i) {
      removes.push_back(reference[rng() % reference.size()]);
    }
    index.Apply(removes, inserts);
    for (const auto& e : removes) {
      auto it = std::find(reference.begin(), reference.end(), e);
      if (it != reference.end()) reference.erase(it);
    }
    reference.insert(reference.end(), inserts.begin(), inserts.end());
    reference = SortedReference(std::move(reference));

    ASSERT_EQ(index.size(), reference.size());
    EXPECT_EQ(index.Entries(), reference);
    // Rank queries agree with the flat lower_bound on present entries,
    // gaps and extremes.
    for (int probe = 0; probe < 20 && !reference.empty(); ++probe) {
      IndexedEntry e = reference[rng() % reference.size()];
      if (probe % 3 == 1) e.key += "x";   // likely absent
      if (probe % 3 == 2) e.seq = rng();  // likely absent
      const size_t expected = static_cast<size_t>(
          std::lower_bound(reference.begin(), reference.end(), e) -
          reference.begin());
      EXPECT_EQ(index.LowerBound(e), expected);
    }
  }
}

TEST(SortedKeyIndexTest, CopiesAreFrozenSnapshots) {
  SortedKeyIndex index;
  for (uint32_t i = 0; i < 50; ++i) {
    index.Insert({std::to_string(i), 0, i});
  }
  const SortedKeyIndex snapshot = index;  // O(1): shares structure
  const std::vector<IndexedEntry> frozen = snapshot.Entries();

  // Keep pointers into the snapshot: they must survive any amount of
  // divergence of the original.
  const auto frozen_span = snapshot.Span(0, snapshot.size());

  for (uint32_t i = 0; i < 50; i += 2) {
    index.Remove({std::to_string(i), 0, i});
  }
  for (uint32_t i = 100; i < 140; ++i) {
    index.Insert({std::to_string(i), 1, i});
  }

  EXPECT_EQ(snapshot.size(), 50u);
  EXPECT_EQ(snapshot.Entries(), frozen);
  for (size_t i = 0; i < frozen_span.size(); ++i) {
    EXPECT_EQ(*frozen_span[i], frozen[i]);
  }
  EXPECT_EQ(index.size(), 50u - 25u + 40u);
}

// ------------------------------------------------- SortedKeyPermutation

TEST(SortedKeyPermutationTest, MatchesStableSortIncludingTies) {
  std::mt19937 rng(99);
  for (int round = 0; round < 30; ++round) {
    std::vector<std::string> keys;
    const size_t n = 1 + rng() % 200;
    for (size_t i = 0; i < n; ++i) {
      std::string key;
      const size_t len = rng() % 12;  // empties and prefixes included
      for (size_t c = 0; c < len; ++c) {
        key += static_cast<char>('A' + rng() % 4);  // few symbols: many ties
      }
      keys.push_back(std::move(key));
    }
    std::vector<uint32_t> expected(n);
    for (uint32_t i = 0; i < n; ++i) expected[i] = i;
    std::stable_sort(expected.begin(), expected.end(),
                     [&](uint32_t a, uint32_t b) { return keys[a] < keys[b]; });
    EXPECT_EQ(SortedKeyPermutation(keys), expected) << "round " << round;
  }
}

TEST(SortedKeyPermutationTest, OrdersByUnsignedByte) {
  // High-bit bytes must sort after ASCII (memcmp order), and a prefix
  // before its extensions.
  std::vector<std::string> keys = {"\xffz", "az", "a", "", "\x7f"};
  const auto perm = SortedKeyPermutation(keys);
  const std::vector<uint32_t> expected = {3, 2, 1, 4, 0};
  EXPECT_EQ(perm, expected);
}

// ------------------------------------------------------------ windowing

TEST(WindowingFrontEndTest, MatchesLegacySemanticsOnGeneratedData) {
  sim::SimOpRegistry ops;
  datagen::CreditBillingOptions gen;
  gen.num_base = 150;
  gen.seed = 321;
  datagen::CreditBillingData data = datagen::GenerateCreditBilling(gen, &ops);

  const std::vector<match::KeyFunction> keys =
      match::StandardWindowKeys(data.pair);
  ASSERT_GE(keys.size(), 2u);

  // Reference: per pass, stable_sort full entry vectors (the pre-refactor
  // implementation), then slide the window. Dedup across all passes keeps
  // each pair's first emission, with a std::set so the expected order does
  // not rest on PairSet.
  using Pair = std::pair<uint32_t, uint32_t>;
  struct Reference {
    std::set<Pair> seen;
    std::vector<Pair> pairs;
  };
  auto reference_pass = [&](const match::KeyFunction& key, size_t window,
                            Reference* out) {
    struct Entry {
      std::string key;
      uint32_t index;
      uint8_t side;
    };
    std::vector<Entry> entries;
    const Instance& inst = data.instance;
    for (uint32_t i = 0; i < inst.left().size(); ++i) {
      entries.push_back({key.Render(inst.left().tuple(i), 0), i, 0});
    }
    for (uint32_t i = 0; i < inst.right().size(); ++i) {
      entries.push_back({key.Render(inst.right().tuple(i), 1), i, 1});
    }
    std::stable_sort(entries.begin(), entries.end(),
                     [](const Entry& a, const Entry& b) {
                       return a.key < b.key;
                     });
    for (size_t i = 0; i < entries.size(); ++i) {
      const size_t hi = std::min(entries.size(), i + window);
      for (size_t j = i + 1; j < hi; ++j) {
        if (entries[i].side == entries[j].side) continue;
        const Pair pair = entries[i].side == 0
                              ? Pair{entries[i].index, entries[j].index}
                              : Pair{entries[j].index, entries[i].index};
        if (out->seen.insert(pair).second) out->pairs.push_back(pair);
      }
    }
  };

  for (const size_t window : {2u, 5u, 10u}) {
    Reference expected;
    for (const auto& key : keys) reference_pass(key, window, &expected);
    ASSERT_FALSE(expected.pairs.empty());
    const match::CandidateSet got =
        WindowCandidatesMultiPass(data.instance, keys, window);
    // Same pairs in the same order — executors evaluate candidates in
    // this order, so ordering is part of the bit-identical contract.
    EXPECT_EQ(got.pairs(), expected.pairs) << "window " << window;
  }
  EXPECT_EQ(WindowCandidates(data.instance, keys[0], 1).size(), 0u);
  EXPECT_EQ(
      WindowCandidatesMultiPass(data.instance, {}, 10).size(), 0u);
}

// -------------------------------------------------------- IndexSnapshot

TEST(IndexSnapshotTest, AdvanceLeavesSharedBaseUntouched) {
  IndexSnapshotPtr base = IndexSnapshot::Empty(2, /*blocking=*/false);
  EXPECT_EQ(base->version(), 0u);

  std::vector<std::vector<IndexedEntry>> inserts(2);
  for (uint32_t i = 0; i < 20; ++i) {
    inserts[0].push_back({"k" + std::to_string(i), 0, i});
    inserts[1].push_back({"j" + std::to_string(i), 0, i});
  }
  // Holding a second reference forces copy-on-write.
  IndexSnapshotPtr held = base;
  IndexSnapshotPtr next = IndexSnapshot::Advance(
      base, std::vector<std::vector<IndexedEntry>>(2), std::move(inserts),
      {}, {}, /*version=*/1);
  EXPECT_EQ(held->window_passes()[0].size(), 0u);
  EXPECT_EQ(next->window_passes()[0].size(), 20u);
  EXPECT_EQ(next->window_passes()[1].size(), 20u);
  EXPECT_EQ(next->version(), 1u);
}

TEST(IndexSnapshotTest, BlockIndexClonedOnlyWhenShared) {
  IndexSnapshotPtr snapshot = IndexSnapshot::Empty(0, /*blocking=*/true);
  std::vector<IndexedEntry> inserts = {{"blk", 0, 1}, {"blk", 1, 2}};
  snapshot = IndexSnapshot::Advance(std::move(snapshot), {}, {}, {},
                                    inserts, 1);
  const BlockIndex* before = snapshot->block();
  ASSERT_NE(before, nullptr);
  ASSERT_NE(before->Find("blk"), nullptr);

  // Shared: the old version must keep its contents after the advance.
  IndexSnapshotPtr held = snapshot;
  std::vector<IndexedEntry> removes = {{"blk", 0, 1}};
  IndexSnapshotPtr next =
      IndexSnapshot::Advance(snapshot, {}, {}, removes, {}, 2);
  ASSERT_NE(held->block()->Find("blk"), nullptr);
  EXPECT_EQ(held->block()->Find("blk")->left.size(), 1u);
  EXPECT_EQ(next->block()->Find("blk")->left.size(), 0u);

  // Unshared advance recycles the object (same block pointer, no clone).
  held.reset();
  const BlockIndex* recycled_block = next->block();
  std::vector<IndexedEntry> more = {{"blk2", 0, 3}};
  next = IndexSnapshot::Advance(std::move(next), {}, {}, {}, more, 3);
  EXPECT_EQ(next->block(), recycled_block);
  EXPECT_NE(next->block()->Find("blk2"), nullptr);
}

// ------------------------------------------------------------ BlockIndex

/// Flat reference model: the behavior BlockIndex must reproduce.
struct BlockReference {
  std::map<std::string, BlockIndex::Block> blocks;
  void Add(uint8_t side, uint32_t id, const std::string& key) {
    auto& b = blocks[key];
    (side == 0 ? b.left : b.right).push_back(id);
  }
  bool Remove(uint8_t side, uint32_t id, const std::string& key) {
    auto it = blocks.find(key);
    if (it == blocks.end()) return false;
    auto& ids = side == 0 ? it->second.left : it->second.right;
    auto pos = std::find(ids.begin(), ids.end(), id);
    if (pos == ids.end()) return false;
    ids.erase(pos);
    if (it->second.left.empty() && it->second.right.empty()) {
      blocks.erase(it);
    }
    return true;
  }
};

void ExpectSameBlocks(const BlockIndex& index, const BlockReference& ref) {
  ASSERT_EQ(index.num_blocks(), ref.blocks.size());
  auto it = ref.blocks.begin();
  index.ForEachBlock(
      [&](const std::string& key, const BlockIndex::Block& block) {
        ASSERT_NE(it, ref.blocks.end());
        EXPECT_EQ(key, it->first);  // key order
        EXPECT_EQ(block.left, it->second.left);
        EXPECT_EQ(block.right, it->second.right);
        ++it;
      });
  EXPECT_EQ(it, ref.blocks.end());
  for (const auto& [key, block] : ref.blocks) {
    const BlockIndex::Block* found = index.Find(key);
    ASSERT_NE(found, nullptr) << key;
    EXPECT_EQ(found->left, block.left);
    EXPECT_EQ(found->right, block.right);
  }
}

TEST(BlockIndexTest, RandomOpsMatchReferenceAcrossSnapshots) {
  std::mt19937 rng(4242);
  BlockIndex index;
  BlockReference ref;
  std::vector<std::pair<BlockIndex, BlockReference>> snapshots;
  std::vector<std::tuple<uint8_t, uint32_t, std::string>> live;

  for (int step = 0; step < 3000; ++step) {
    if (!live.empty() && rng() % 3 == 0) {
      const size_t at = rng() % live.size();
      const auto [side, id, key] = live[at];
      EXPECT_TRUE(index.Remove(side, id, key));
      EXPECT_TRUE(ref.Remove(side, id, key));
      live.erase(live.begin() + at);
    } else {
      const uint8_t side = rng() % 2;
      const uint32_t id = step;
      const std::string key = "k" + std::to_string(rng() % 60);
      index.Add(side, id, key);
      ref.Add(side, id, key);
      live.emplace_back(side, id, key);
    }
    EXPECT_FALSE(index.Remove(0, 999999, "absent"));
    if (step % 500 == 250) snapshots.emplace_back(index, ref);  // O(1) copy
  }
  ExpectSameBlocks(index, ref);
  // Every frozen copy still shows exactly the state it was taken at.
  for (const auto& [frozen, frozen_ref] : snapshots) {
    ExpectSameBlocks(frozen, frozen_ref);
  }
}

TEST(BlockIndexTest, MutationClonesOnlyTheTouchedBlock) {
  BlockIndex index;
  for (uint32_t i = 0; i < 50; ++i) {
    index.Add(0, i, "key" + std::to_string(i % 10));
  }
  BlockIndex frozen = index;  // flips to persistent mode
  const BlockIndex::Block* untouched_before = frozen.Find("key3");
  const BlockIndex::Block* touched_before = frozen.Find("key7");

  index.Add(1, 100, "key7");
  // The touched block was cloned for the new version; every other block
  // is shared by pointer with the frozen copy.
  EXPECT_EQ(index.Find("key3"), untouched_before);
  EXPECT_NE(index.Find("key7"), touched_before);
  EXPECT_EQ(frozen.Find("key7"), touched_before);
  EXPECT_EQ(frozen.Find("key7")->right.size(), 0u);
  EXPECT_EQ(index.Find("key7")->right.size(), 1u);
}

// Satellite regression (const-correctness audit): nothing reachable from
// a frozen snapshot hands out a mutable path into the index — Find and
// ForEachBlock return const blocks, IndexSnapshot::block() is a const
// pointer, and mutating the live index never disturbs what a frozen
// snapshot shows.
TEST(BlockIndexTest, FrozenSnapshotsExposeNoMutablePath) {
  static_assert(
      std::is_same_v<decltype(std::declval<const BlockIndex&>().Find("")),
                     const BlockIndex::Block*>,
      "Find must hand out const blocks");
  static_assert(
      std::is_same_v<
          decltype(std::declval<const IndexSnapshot&>().block()),
          const BlockIndex*>,
      "IndexSnapshot::block must be deeply const");

  IndexSnapshotPtr snapshot = IndexSnapshot::Empty(0, /*blocking=*/true);
  std::vector<IndexedEntry> inserts = {{"a", 0, 1}, {"a", 1, 2},
                                       {"b", 0, 3}};
  snapshot = IndexSnapshot::Advance(std::move(snapshot), {}, {}, {},
                                    inserts, 1);
  IndexSnapshotPtr frozen = snapshot;

  // Hammer the same blocks through several descendant versions.
  for (uint64_t v = 2; v < 6; ++v) {
    std::vector<IndexedEntry> more = {{"a", 0, static_cast<uint32_t>(v * 10)},
                                      {"b", 1, static_cast<uint32_t>(v)}};
    std::vector<IndexedEntry> removes =
        v == 4 ? std::vector<IndexedEntry>{{"a", 1, 2}}
               : std::vector<IndexedEntry>{};
    snapshot = IndexSnapshot::Advance(std::move(snapshot), {}, {}, removes,
                                      more, v);
  }

  const BlockIndex::Block* a = frozen->block()->Find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->left, (std::vector<uint32_t>{1}));
  EXPECT_EQ(a->right, (std::vector<uint32_t>{2}));
  const BlockIndex::Block* b = frozen->block()->Find("b");
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->left, (std::vector<uint32_t>{3}));
  EXPECT_TRUE(b->right.empty());
  EXPECT_EQ(frozen->block()->num_blocks(), 2u);
  // And the live head really did move on.
  EXPECT_EQ(snapshot->block()->Find("a")->left.size(), 5u);
}

// --------------------------------------------------------- IndexCatalog

TEST(IndexCatalogTest, MemoizesTransitionsPerEntry) {
  IndexCatalog catalog;
  auto entry = catalog.Acquire(1234, "corpus-a");
  ASSERT_EQ(catalog.num_entries(), 1u);
  EXPECT_EQ(catalog.Acquire(1234, "corpus-a"), entry);  // same slot
  EXPECT_NE(catalog.Acquire(1234, "corpus-b"), entry);
  EXPECT_NE(catalog.Acquire(99, "corpus-a"), entry);
  EXPECT_EQ(catalog.num_entries(), 3u);

  size_t builds = 0;
  auto build = [&](uint64_t version) {
    ++builds;
    IndexSnapshotPtr base = IndexSnapshot::Empty(1, false);
    std::vector<std::vector<IndexedEntry>> inserts(1);
    inserts[0].push_back({"x", 0, 7});
    return IndexSnapshot::Advance(
        std::move(base), std::vector<std::vector<IndexedEntry>>(1),
        std::move(inserts), {}, {}, version);
  };

  bool reused = true;
  IndexSnapshotPtr first = entry->Advance(0, 42, &reused, build);
  EXPECT_FALSE(reused);
  EXPECT_EQ(builds, 1u);
  EXPECT_EQ(first->version(), 1u);

  // Same (base, delta): adopted, not rebuilt.
  IndexSnapshotPtr second = entry->Advance(0, 42, &reused, build);
  EXPECT_TRUE(reused);
  EXPECT_EQ(builds, 1u);
  EXPECT_EQ(second, first);

  // A different delta from the same base branches off.
  IndexSnapshotPtr branch = entry->Advance(0, 43, &reused, build);
  EXPECT_FALSE(reused);
  EXPECT_EQ(builds, 2u);
  EXPECT_NE(branch, first);
  EXPECT_EQ(branch->version(), 2u);
  EXPECT_EQ(entry->memo_size(), 2u);
}

}  // namespace
}  // namespace mdmatch::candidate
