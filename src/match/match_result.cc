#include "match/match_result.h"

#include <utility>

namespace mdmatch::match {

namespace {

/// MurmurHash3's 64-bit finalizer: every key bit reaches every hash bit,
/// so keys differing only in the right index still spread.
inline uint64_t Mix(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdULL;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ULL;
  k ^= k >> 33;
  return k;
}

constexpr size_t kInitialSlots = 16;

}  // namespace

PairSet::PairSet(PairSet&& other) noexcept
    : slots_(std::exchange(other.slots_, {})),
      has_empty_key_(std::exchange(other.has_empty_key_, false)),
      pairs_(std::exchange(other.pairs_, {})) {}

PairSet& PairSet::operator=(PairSet&& other) noexcept {
  slots_ = std::exchange(other.slots_, {});
  has_empty_key_ = std::exchange(other.has_empty_key_, false);
  pairs_ = std::exchange(other.pairs_, {});
  return *this;
}

bool PairSet::Add(uint32_t left_index, uint32_t right_index) {
  const uint64_t key = PairKey(left_index, right_index);
  if (key == kEmpty) {
    if (has_empty_key_) return false;
    has_empty_key_ = true;
  } else {
    // Keep the table at most half full, counting this key.
    const size_t in_table = pairs_.size() - (has_empty_key_ ? 1 : 0);
    if (2 * (in_table + 1) > slots_.size()) Grow();
    uint64_t& slot = slots_[SlotOf(key)];
    if (slot == key) return false;
    slot = key;
  }
  pairs_.emplace_back(left_index, right_index);
  return true;
}

bool PairSet::Contains(uint32_t left_index, uint32_t right_index) const {
  const uint64_t key = PairKey(left_index, right_index);
  if (key == kEmpty) return has_empty_key_;
  return !slots_.empty() && slots_[SlotOf(key)] == key;
}

void PairSet::Merge(const PairSet& other) {
  if (&other == this) return;
  for (const auto& [l, r] : other.pairs()) Add(l, r);
}

size_t PairSet::SlotOf(uint64_t key) const {
  const size_t mask = slots_.size() - 1;
  size_t i = Mix(key) & mask;
  while (slots_[i] != kEmpty && slots_[i] != key) i = (i + 1) & mask;
  return i;
}

void PairSet::Grow() {
  std::vector<uint64_t> old(
      slots_.empty() ? kInitialSlots : 2 * slots_.size(), kEmpty);
  old.swap(slots_);
  for (const uint64_t key : old) {
    if (key != kEmpty) slots_[SlotOf(key)] = key;
  }
}

}  // namespace mdmatch::match
