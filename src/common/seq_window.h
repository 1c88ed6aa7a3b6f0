// SeqWindow: a sliding window keyed by dense, monotonically increasing
// sequence numbers.
//
// The reliable channels (datacenter bulk links, metadata links, serializer
// chains) all share one shape: messages are numbered 1, 2, 3, ... on send,
// retired strictly in order by cumulative acknowledgement (or contiguous
// commit), and consulted by exact sequence number in between. The live set is
// therefore always the contiguous range [begin_seq, end_seq) — a ring of
// recycled slots indexed by (seq - begin) serves every operation in O(1) with
// zero steady-state allocations: the std::maps this shape originally used
// paid an allocation and a tree rebalance per message, and the std::deque
// that replaced them still paid one block allocation per handful of entries
// once messages carried their metadata inline. Iteration is in ascending
// sequence order by construction, preserving the deterministic send order
// the fingerprint tests rely on. The channels' retransmission walks iterate
// only when an entry can be due: each keeps a lower bound on its window's
// send times and skips the walk while that bound is younger than the RTO.
#ifndef SRC_COMMON_SEQ_WINDOW_H_
#define SRC_COMMON_SEQ_WINDOW_H_

#include <cstdint>
#include <utility>

#include "src/common/check.h"
#include "src/common/ring_buffer.h"

namespace saturn {

template <typename T>
class SeqWindow {
 public:
  SeqWindow() = default;

  bool empty() const { return items_.empty(); }
  size_t size() const { return items_.size(); }

  // First live sequence number. Meaningless when empty.
  uint64_t begin_seq() const { return base_; }
  // One past the last live sequence number.
  uint64_t end_seq() const { return base_ + items_.size(); }

  // Appends the entry for `seq`, which must extend the window contiguously
  // (== end_seq()), or start a fresh window when empty.
  T& Push(uint64_t seq, T value = T{}) {
    if (items_.empty()) {
      base_ = seq;
    } else {
      SAT_CHECK_MSG(seq == end_seq(), "SeqWindow: non-contiguous push %llu != %llu",
                    static_cast<unsigned long long>(seq),
                    static_cast<unsigned long long>(end_seq()));
    }
    return items_.push_back(std::move(value));
  }

  // Entry for `seq`, or nullptr when outside the live window.
  T* Find(uint64_t seq) {
    if (items_.empty() || seq < base_ || seq >= end_seq()) {
      return nullptr;
    }
    return &items_[seq - base_];
  }

  T& At(uint64_t seq) {
    T* entry = Find(seq);
    SAT_CHECK_MSG(entry != nullptr, "SeqWindow: seq %llu outside [%llu, %llu)",
                  static_cast<unsigned long long>(seq),
                  static_cast<unsigned long long>(base_),
                  static_cast<unsigned long long>(end_seq()));
    return *entry;
  }

  // Retires every entry with sequence <= `seq` (cumulative-ack semantics).
  void PopUpTo(uint64_t seq) {
    while (!items_.empty() && base_ <= seq) {
      items_.pop_front();
      ++base_;
    }
  }

  // Visits live entries as fn(seq, T&) in ascending sequence order.
  template <typename Fn>
  void ForEach(Fn fn) {
    for (size_t i = 0; i < items_.size(); ++i) {
      fn(base_ + i, items_[i]);
    }
  }

  template <typename Fn>
  void ForEach(Fn fn) const {
    for (size_t i = 0; i < items_.size(); ++i) {
      fn(base_ + i, items_[i]);
    }
  }

 private:
  RingQueue<T> items_;
  uint64_t base_ = 1;  // seq of items_.front() when non-empty
};

}  // namespace saturn

#endif  // SRC_COMMON_SEQ_WINDOW_H_
