#ifndef MDMATCH_MATCH_MATCH_RESULT_H_
#define MDMATCH_MATCH_MATCH_RESULT_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace mdmatch::match {

/// The canonical packing of a cross-relation pair into one 64-bit key —
/// shared by PairSet's hash index and PersistentPairSet's trie keys, so
/// both structures agree on identity (and on key order).
inline constexpr uint64_t PairKey(uint32_t left_index, uint32_t right_index) {
  return (static_cast<uint64_t>(left_index) << 32) | right_index;
}

/// \brief A deduplicated set of cross-relation tuple pairs, addressed by
/// tuple *positions* (index into instance.left() / instance.right()).
///
/// Used both for declared matches and for candidate pairs produced by
/// blocking / windowing (whose PC and RR metrics count distinct pairs).
///
/// `pairs()` lists the distinct pairs in first-insertion order; executors
/// evaluate candidates and report matches in that order, so it is part of
/// the bit-identical Executor/session contract. Membership is a flat
/// open-addressing table of `PairKey`s: linear probing over a power-of-two
/// capacity kept at most half full, indexed by a full 64-bit mix (windowed
/// keys cluster in their low, right-index bits). A distinct pair costs
/// 8 B in `pairs()` plus 16–32 B of table, with no heap node per pair.
/// There is no erase: a set only grows. The all-ones key, PairKey(MAX, MAX),
/// marks empty slots, so that one pair is tracked by a flag instead.
class PairSet {
 public:
  PairSet() = default;
  PairSet(const PairSet&) = default;
  PairSet& operator=(const PairSet&) = default;
  /// A moved-from set is empty and usable.
  PairSet(PairSet&& other) noexcept;
  PairSet& operator=(PairSet&& other) noexcept;

  /// Adds (left_index, right_index); returns true if newly inserted.
  bool Add(uint32_t left_index, uint32_t right_index);

  bool Contains(uint32_t left_index, uint32_t right_index) const;

  size_t size() const { return pairs_.size(); }
  bool empty() const { return pairs_.empty(); }

  const std::vector<std::pair<uint32_t, uint32_t>>& pairs() const {
    return pairs_;
  }

  /// Inserts every pair of `other`, in `other`'s order.
  void Merge(const PairSet& other);

 private:
  static constexpr uint64_t kEmpty = ~uint64_t{0};

  /// The slot holding `key`, or the free slot that ends its probe run.
  size_t SlotOf(uint64_t key) const;
  /// Doubles the table (or allocates the first one) and reinserts.
  void Grow();

  std::vector<uint64_t> slots_;  ///< PairKeys; kEmpty = free slot
  bool has_empty_key_ = false;   ///< PairKey(MAX, MAX) is in the set
  std::vector<std::pair<uint32_t, uint32_t>> pairs_;
};

/// Matches declared by a matcher.
using MatchResult = PairSet;
/// Candidate pairs selected for comparison by blocking / windowing.
using CandidateSet = PairSet;

}  // namespace mdmatch::match

#endif  // MDMATCH_MATCH_MATCH_RESULT_H_
