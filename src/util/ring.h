// Contiguous replacements for the node-based containers on the per-packet
// hot paths.
//
// std::map and std::deque put every element (or small chunk) behind its own
// heap node: at 100k flows the sender scoreboards and reorder buffers alone
// were millions of 48-byte map nodes, and every insert/erase was an
// allocation plus pointer chasing. The protocol state they hold has far more
// structure than a general ordered map:
//
//  - A sender's inflight scoreboard is a *dense* sequence range
//    [snd_una, next_seq): segments enter only at the top (next_seq++) and
//    leave only from the bottom (cumulative ack). -> SeqRing.
//  - A subflow receiver's out-of-order buffer holds *sparse* sequence
//    numbers inside the bounded window (rcv_next, rcv_high). -> SeqWindow.
//  - The meta reorder buffer maps sparse byte offsets to held segments,
//    drained from the bottom, inserted mostly near the top. -> FlatSeqMap.
//  - Link queues and subflow staging queues are plain FIFOs. -> RingDeque.
//
// All four store elements in a single contiguous buffer (power-of-two sized,
// grown by doubling) so the steady state does zero allocation and iteration
// is a linear scan. Copies of RingDeque and SeqRing (a fork copying a
// world) make one allocation sized for the live elements only, not the
// source's high-water capacity: the smallest power of two >= max(2, count),
// exactly what appending the elements one by one would have grown to.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace mps {

// Slots a copy of a ring holding `count` elements allocates: 0 when empty,
// else the capacity growth by doubling from 2 reaches.
inline std::size_t ring_copy_capacity(std::size_t count) {
  return count == 0 ? 0 : std::max<std::size_t>(2, std::bit_ceil(count));
}

// Fixed-capacity-amortized FIFO: push_back / front / pop_front over one
// circular buffer. Replaces std::deque for packet and staging queues.
template <typename T>
class RingDeque {
 public:
  RingDeque() = default;
  RingDeque(const RingDeque& o) : buf_(ring_copy_capacity(o.count_)), count_(o.count_) {
    if (buf_.empty()) return;
    mask_ = buf_.size() - 1;
    for (std::size_t i = 0; i < count_; ++i) buf_[i] = o.at(i);
  }
  RingDeque& operator=(const RingDeque& o) {
    if (this != &o) *this = RingDeque(o);
    return *this;
  }
  RingDeque(RingDeque&&) noexcept = default;
  RingDeque& operator=(RingDeque&&) noexcept = default;

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  void push_back(T v) {
    if (count_ == buf_.size()) grow();
    buf_[(head_ + count_) & mask_] = std::move(v);
    ++count_;
  }

  T& front() {
    assert(count_ > 0);
    return buf_[head_];
  }
  const T& front() const {
    assert(count_ > 0);
    return buf_[head_];
  }
  T& back() {
    assert(count_ > 0);
    return buf_[(head_ + count_ - 1) & mask_];
  }

  void pop_front() {
    assert(count_ > 0);
    // Release payload resources eagerly; a trivially destructible T holds
    // none, and for a 232-byte Packet the zeroing store is pure cost.
    if constexpr (!std::is_trivially_destructible_v<T>) buf_[head_] = T{};
    head_ = (head_ + 1) & mask_;
    --count_;
  }

  // Element i positions from the front (0 == front()).
  const T& at(std::size_t i) const {
    assert(i < count_);
    return buf_[(head_ + i) & mask_];
  }

  void clear() {
    buf_.clear();
    buf_.shrink_to_fit();
    head_ = count_ = 0;
    mask_ = ~std::size_t{0};
  }

 private:
  void grow() {
    // First allocation is deliberately tiny: at 100k flows the per-subflow
    // staging queues dominated the "other" memory tag, and most queues never
    // hold more than a couple of entries (BENCH_scale.json, ROADMAP item 1).
    const std::size_t new_cap = buf_.empty() ? 2 : buf_.size() * 2;
    std::vector<T> next(new_cap);
    for (std::size_t i = 0; i < count_; ++i) next[i] = std::move(buf_[(head_ + i) & mask_]);
    buf_ = std::move(next);
    head_ = 0;
    mask_ = new_cap - 1;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t mask_ = ~std::size_t{0};  // buf_.size() - 1 once allocated
};

// Dense map over a contiguous key range [lo, hi): every key in the range is
// present. push_back appends at hi, pop_front removes lo, and lookup is one
// masked index. This is exactly the shape of a TCP sender scoreboard.
template <typename T>
class SeqRing {
 public:
  SeqRing() = default;
  SeqRing(const SeqRing& o) : buf_(ring_copy_capacity(o.count_)), lo_(o.lo_), count_(o.count_) {
    if (buf_.empty()) return;
    mask_ = buf_.size() - 1;
    for (std::uint64_t s = lo_; s != hi(); ++s) buf_[s & mask_] = o[s];
  }
  SeqRing& operator=(const SeqRing& o) {
    if (this != &o) *this = SeqRing(o);
    return *this;
  }
  SeqRing(SeqRing&&) noexcept = default;
  SeqRing& operator=(SeqRing&&) noexcept = default;

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  std::uint64_t lo() const { return lo_; }
  std::uint64_t hi() const { return lo_ + count_; }

  // Appends the element for key hi().
  void push_back(T v) {
    if (count_ == buf_.size()) grow();
    buf_[(lo_ + count_) & mask_] = std::move(v);
    ++count_;
  }

  T& front() {
    assert(count_ > 0);
    return buf_[lo_ & mask_];
  }
  const T& front() const {
    assert(count_ > 0);
    return buf_[lo_ & mask_];
  }

  void pop_front() {
    assert(count_ > 0);
    if constexpr (!std::is_trivially_destructible_v<T>) buf_[lo_ & mask_] = T{};
    ++lo_;
    --count_;
  }

  T& operator[](std::uint64_t seq) {
    assert(seq >= lo_ && seq < hi());
    return buf_[seq & mask_];
  }
  const T& operator[](std::uint64_t seq) const {
    assert(seq >= lo_ && seq < hi());
    return buf_[seq & mask_];
  }

  // Makes room for `n` elements in one allocation (a burst about to be
  // appended), never shrinking and never below the first-block size.
  void reserve(std::size_t n) {
    if (n > buf_.size()) grow_to(n);
  }

  // Resets to an empty range based at `lo` (fresh connection state).
  void reset(std::uint64_t lo) {
    buf_.clear();
    buf_.shrink_to_fit();
    lo_ = lo;
    count_ = 0;
    mask_ = ~std::uint64_t{0};
  }

 private:
  void grow() { grow_to(count_ + 1); }
  void grow_to(std::size_t n) {
    // Same small-first policy as RingDeque::grow — idle flows keep a handful
    // of in-flight segments, so starting at 8 wasted most of the buffer.
    std::size_t new_cap = buf_.empty() ? 2 : buf_.size() * 2;
    while (new_cap < n) new_cap *= 2;
    std::vector<T> next(new_cap);
    const std::uint64_t new_mask = new_cap - 1;
    for (std::uint64_t s = lo_; s != lo_ + count_; ++s) next[s & new_mask] = std::move(buf_[s & mask_]);
    buf_ = std::move(next);
    mask_ = new_mask;
  }

  std::vector<T> buf_;
  std::uint64_t lo_ = 0;
  std::uint64_t mask_ = ~std::uint64_t{0};  // buf_.size() - 1 once allocated
  std::size_t count_ = 0;
};

// Sparse presence map over a bounded sliding key window: the live keys'
// span (max - min + 1) must fit the buffer, which grows by doubling. Lookup
// and insert are one masked index; ordered traversal scans the span, which
// for an out-of-order buffer is bounded by the flight size.
template <typename T>
class SeqWindow {
 public:
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  // Lowest / highest live key; kNone when empty.
  std::uint64_t min_key() const { return count_ == 0 ? kNone : min_; }
  std::uint64_t max_key() const { return count_ == 0 ? kNone : max_; }

  bool contains(std::uint64_t key) const {
    return count_ != 0 && key >= min_ && key <= max_ && present_[key & mask_];
  }

  T* find(std::uint64_t key) {
    return contains(key) ? &vals_[key & mask_] : nullptr;
  }
  const T* find(std::uint64_t key) const {
    return contains(key) ? &vals_[key & mask_] : nullptr;
  }

  // Inserts without overwriting; returns false when the key is present.
  bool insert(std::uint64_t key, T v) {
    if (contains(key)) return false;
    const std::uint64_t new_min = count_ == 0 ? key : std::min(min_, key);
    const std::uint64_t new_max = count_ == 0 ? key : std::max(max_, key);
    if (new_max - new_min + 1 > vals_.size()) grow(new_min, new_max);
    present_[key & mask_] = 1;
    vals_[key & mask_] = std::move(v);
    min_ = new_min;
    max_ = new_max;
    ++count_;
    return true;
  }

  // Erases a present key.
  void erase(std::uint64_t key) {
    assert(contains(key));
    present_[key & mask_] = 0;
    vals_[key & mask_] = T{};
    --count_;
    if (count_ == 0) return;
    // Only the bound that moved needs a rescan; drains erase the min, so
    // this is an amortized forward walk over the window.
    if (key == min_) {
      while (!present_[min_ & mask_]) ++min_;
    } else if (key == max_) {
      while (!present_[max_ & mask_]) --max_;
    }
  }

  // Lowest live key >= key; kNone when there is none.
  std::uint64_t first_at_or_after(std::uint64_t key) const {
    if (count_ == 0 || key > max_) return kNone;
    std::uint64_t k = std::max(key, min_);
    while (!present_[k & mask_]) ++k;
    return k;
  }

 private:
  void grow(std::uint64_t new_min, std::uint64_t new_max) {
    std::size_t new_cap = vals_.empty() ? 8 : vals_.size();
    while (new_max - new_min + 1 > new_cap) new_cap *= 2;
    std::vector<T> vals(new_cap);
    std::vector<std::uint8_t> present(new_cap, 0);
    const std::uint64_t new_mask = new_cap - 1;
    if (count_ != 0) {
      for (std::uint64_t k = min_; k <= max_; ++k) {
        if (!present_[k & mask_]) continue;
        present[k & new_mask] = 1;
        vals[k & new_mask] = std::move(vals_[k & mask_]);
      }
    }
    vals_ = std::move(vals);
    present_ = std::move(present);
    mask_ = new_mask;
  }

  std::vector<T> vals_;
  std::vector<std::uint8_t> present_;
  std::uint64_t mask_ = ~std::uint64_t{0};  // vals_.size() - 1 once allocated
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
  std::size_t count_ = 0;
};

// Sorted flat map over sparse uint64 keys: one contiguous array of entries
// ordered by key, with an amortized-O(1) pop_front (a head offset, compacted
// periodically) because reorder buffers drain strictly from the bottom.
// Inserts shift the tail, but arrivals are mostly near the top, so the
// common shift is short.
template <typename V>
class FlatSeqMap {
 public:
  struct Entry {
    std::uint64_t key;
    V value;
  };

  bool empty() const { return head_ == entries_.size(); }
  std::size_t size() const { return entries_.size() - head_; }

  // Entry i positions above the current front (i in [0, size())).
  const Entry& at(std::size_t i) const {
    assert(head_ + i < entries_.size());
    return entries_[head_ + i];
  }

  std::uint64_t front_key() const {
    assert(!empty());
    return entries_[head_].key;
  }
  V& front_value() {
    assert(!empty());
    return entries_[head_].value;
  }

  void pop_front() {
    assert(!empty());
    ++head_;
    if (head_ == entries_.size()) {
      entries_.clear();
      head_ = 0;
    } else if (head_ >= 32 && head_ * 2 >= entries_.size()) {
      entries_.erase(entries_.begin(), entries_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  // Inserts key -> value if absent; returns (value slot, inserted). The
  // returned pointer is invalidated by the next mutation.
  std::pair<V*, bool> try_emplace(std::uint64_t key, V value) {
    auto it = std::lower_bound(
        entries_.begin() + static_cast<std::ptrdiff_t>(head_), entries_.end(), key,
        [](const Entry& e, std::uint64_t k) { return e.key < k; });
    if (it != entries_.end() && it->key == key) return {&it->value, false};
    it = entries_.insert(it, Entry{key, std::move(value)});
    return {&it->value, true};
  }

 private:
  std::vector<Entry> entries_;
  std::size_t head_ = 0;
};

}  // namespace mps
