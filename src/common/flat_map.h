// Open-addressed flat hash map for the simulator's hot lookup tables.
//
// The network's per-channel FIFO clamps, link fault tables and the reliable
// channels' reorder buffers do an exact-key lookup per message; std::map's
// pointer-chasing red-black nodes made each of those a cache-miss chain. This
// map stores keys, values and slot states in flat arrays (power-of-two
// capacity, linear probing, tombstoned erase, splitmix64-mixed hashes), so the
// common hit touches one or two consecutive slots.
//
// Deliberately minimal: exactly the operations the simulator needs (Find,
// operator[], Erase, ForEach, size). Iteration order is the probe-table order
// — deterministic for a fixed insertion/erase history, but NOT sorted; callers
// that need ordered traversal keep ordered containers (or a SeqWindow when
// keys are dense sequence numbers).
#ifndef SRC_COMMON_FLAT_MAP_H_
#define SRC_COMMON_FLAT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/common/check.h"

namespace saturn {

// splitmix64 finalizer: full-avalanche mixing so dense keys (site pairs,
// sequence numbers, packed node ids) spread across the table.
inline uint64_t HashMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

template <typename K, typename V>
class FlatMap {
  static_assert(sizeof(K) <= sizeof(uint64_t), "FlatMap keys must be integral-sized");

 public:
  FlatMap() = default;

  FlatMap(const FlatMap&) = default;
  FlatMap& operator=(const FlatMap&) = default;
  FlatMap(FlatMap&&) noexcept = default;
  FlatMap& operator=(FlatMap&&) noexcept = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  // Slot count (a power of two); lets tests and sizing audits observe that a
  // Reserve actually pre-sized and that churn is not doubling the table.
  size_t capacity() const { return states_.size(); }

  // Pre-sizes the table so `n` live entries insert without a rehash (growth
  // triggers at 7/8 occupancy, so capacity must exceed 8n/7). Tables sized
  // from workload config skip the doubling cascade — at a million sessions
  // that cascade is a storm of full-table rehashes right at ramp-up.
  void Reserve(size_t n) {
    size_t capacity = 16;
    while (capacity * 7 <= n * 8) {
      capacity <<= 1;
    }
    if (capacity > states_.size()) {
      Rehash(capacity);
    }
  }

  void Clear() {
    states_.clear();
    keys_.clear();
    values_.clear();
    size_ = 0;
    used_ = 0;
  }

  V* Find(const K& key) {
    if (states_.empty()) {
      return nullptr;
    }
    size_t slot = FindSlot(key);
    return states_[slot] == kFull ? &values_[slot] : nullptr;
  }

  const V* Find(const K& key) const {
    if (states_.empty()) {
      return nullptr;
    }
    size_t slot = FindSlot(key);
    return states_[slot] == kFull ? &values_[slot] : nullptr;
  }

  bool Contains(const K& key) const { return Find(key) != nullptr; }

  // Inserts a default-constructed value when absent.
  V& operator[](const K& key) {
    ReserveForInsert();
    size_t slot = FindSlot(key);
    if (states_[slot] != kFull) {
      if (states_[slot] == kEmpty) {
        ++used_;
      }
      states_[slot] = kFull;
      keys_[slot] = key;
      values_[slot] = V{};
      ++size_;
    }
    return values_[slot];
  }

  // Returns true when the key was present.
  bool Erase(const K& key) {
    if (states_.empty()) {
      return false;
    }
    size_t slot = FindSlot(key);
    if (states_[slot] != kFull) {
      return false;
    }
    states_[slot] = kTombstone;
    values_[slot] = V{};  // release held resources eagerly
    --size_;
    return true;
  }

  // Visits every entry as fn(const K&, V&). Probe-table order: deterministic
  // for a fixed operation history, not sorted.
  template <typename Fn>
  void ForEach(Fn fn) {
    for (size_t i = 0; i < states_.size(); ++i) {
      if (states_[i] == kFull) {
        fn(keys_[i], values_[i]);
      }
    }
  }

  template <typename Fn>
  void ForEach(Fn fn) const {
    for (size_t i = 0; i < states_.size(); ++i) {
      if (states_[i] == kFull) {
        fn(keys_[i], values_[i]);
      }
    }
  }

 private:
  enum : uint8_t { kEmpty = 0, kFull = 1, kTombstone = 2 };

  // Returns the slot holding `key`, or the first insertable slot (empty or
  // tombstone) of its probe chain.
  size_t FindSlot(const K& key) const {
    size_t mask = states_.size() - 1;
    size_t slot = HashMix64(static_cast<uint64_t>(key)) & mask;
    size_t first_tombstone = states_.size();
    for (;;) {
      uint8_t state = states_[slot];
      if (state == kFull && keys_[slot] == key) {
        return slot;
      }
      if (state == kEmpty) {
        return first_tombstone != states_.size() ? first_tombstone : slot;
      }
      if (state == kTombstone && first_tombstone == states_.size()) {
        first_tombstone = slot;
      }
      slot = (slot + 1) & mask;
    }
  }

  void ReserveForInsert() {
    if (states_.empty()) {
      Rehash(16);
      return;
    }
    // Rehash at 7/8 occupancy (live + tombstones) to keep probe chains short.
    if ((used_ + 1) * 8 >= states_.size() * 7) {
      // Grow only when live entries dominate; otherwise same-size rehash
      // just flushes tombstones.
      Rehash(size_ * 4 >= states_.size() ? states_.size() * 2 : states_.size());
    }
  }

  void Rehash(size_t new_capacity) {
    std::vector<uint8_t> old_states = std::move(states_);
    std::vector<K> old_keys = std::move(keys_);
    std::vector<V> old_values = std::move(values_);
    states_.assign(new_capacity, kEmpty);
    keys_.assign(new_capacity, K{});
    // resize, not assign(n, V{}): values only need to be default-constructible
    // and movable (the channel queues they hold are move-only).
    values_.clear();
    values_.resize(new_capacity);
    used_ = size_;
    size_t mask = new_capacity - 1;
    for (size_t i = 0; i < old_states.size(); ++i) {
      if (old_states[i] != kFull) {
        continue;
      }
      size_t slot = HashMix64(static_cast<uint64_t>(old_keys[i])) & mask;
      while (states_[slot] == kFull) {
        slot = (slot + 1) & mask;
      }
      states_[slot] = kFull;
      keys_[slot] = old_keys[i];
      values_[slot] = std::move(old_values[i]);
    }
  }

  std::vector<uint8_t> states_;
  std::vector<K> keys_;
  std::vector<V> values_;
  size_t size_ = 0;  // live entries
  size_t used_ = 0;  // live + tombstones
};

// Default FlatSet hash: integral-sized keys, splitmix64-mixed.
template <typename K>
struct FlatHash {
  static_assert(sizeof(K) <= sizeof(uint64_t), "FlatHash keys must be integral-sized");
  uint64_t operator()(const K& key) const { return HashMix64(static_cast<uint64_t>(key)); }
};

// Open-addressed set with the same layout and growth policy as FlatMap, for
// the membership-only hot paths (applied-update dedup, client causal
// contexts, delivered migration labels). Wider keys bring their own `Hash`
// (a callable returning a well-mixed uint64_t). No tombstones: none of
// those callers erase individual keys.
template <typename K, typename Hash = FlatHash<K>>
class FlatSet {
 public:
  FlatSet() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return states_.size(); }

  // Same contract as FlatMap::Reserve: `n` inserts without a rehash.
  void Reserve(size_t n) {
    size_t capacity = 16;
    while (capacity * 7 <= n * 8) {
      capacity <<= 1;
    }
    if (capacity > states_.size()) {
      Rehash(capacity);
    }
  }

  void Clear() {
    states_.clear();
    keys_.clear();
    size_ = 0;
  }

  bool Contains(const K& key) const {
    if (states_.empty()) {
      return false;
    }
    return states_[FindSlot(key)] != 0;
  }

  // Returns true when the key was newly inserted.
  bool Insert(const K& key) {
    ReserveForInsert();
    size_t slot = FindSlot(key);
    if (states_[slot] != 0) {
      return false;
    }
    states_[slot] = 1;
    keys_[slot] = key;
    ++size_;
    return true;
  }

 private:
  size_t FindSlot(const K& key) const {
    size_t mask = states_.size() - 1;
    size_t slot = Hash{}(key) & mask;
    while (states_[slot] != 0 && !(keys_[slot] == key)) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }

  void ReserveForInsert() {
    if (states_.empty()) {
      Rehash(16);
    } else if ((size_ + 1) * 8 >= states_.size() * 7) {
      Rehash(states_.size() * 2);
    }
  }

  void Rehash(size_t new_capacity) {
    std::vector<uint8_t> old_states = std::move(states_);
    std::vector<K> old_keys = std::move(keys_);
    states_.assign(new_capacity, 0);
    keys_.assign(new_capacity, K{});
    size_t mask = new_capacity - 1;
    for (size_t i = 0; i < old_states.size(); ++i) {
      if (old_states[i] == 0) {
        continue;
      }
      size_t slot = Hash{}(old_keys[i]) & mask;
      while (states_[slot] != 0) {
        slot = (slot + 1) & mask;
      }
      states_[slot] = 1;
      keys_[slot] = old_keys[i];
    }
  }

  std::vector<uint8_t> states_;
  std::vector<K> keys_;
  size_t size_ = 0;
};

}  // namespace saturn

#endif  // SRC_COMMON_FLAT_MAP_H_
