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
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace mps {

// Slots a copy of a ring holding `count` elements allocates: 0 when empty,
// else the capacity growth by doubling from 2 reaches.
inline std::size_t ring_copy_capacity(std::size_t count) {
  return count == 0 ? 0 : std::max<std::size_t>(2, std::bit_ceil(count));
}

// The rings own their buffer through one raw pointer instead of a
// std::vector: a ring header is then a pointer plus 32-bit index fields, 24
// bytes where a vector-backed ring took 48, and every per-flow object holds
// several rings (DESIGN.md §12.4). Elements are value-initialized, as a
// std::vector<T>(n) would, so buffers touch the same memory.
namespace ring_detail {

template <typename T>
T* allocate(std::size_t n) {
  T* p = std::allocator<T>().allocate(n);
  std::uninitialized_value_construct_n(p, n);
  return p;
}

template <typename T>
void release(T* p, std::size_t n) {
  if (p == nullptr) return;
  std::destroy_n(p, n);
  std::allocator<T>().deallocate(p, n);
}

}  // namespace ring_detail

// Fixed-capacity-amortized FIFO: push_back / front / pop_front over one
// circular buffer. Replaces std::deque for packet and staging queues.
template <typename T>
class RingDeque {
 public:
  RingDeque() = default;
  RingDeque(const RingDeque& o) : count_(o.count_) {
    const std::size_t cap = ring_copy_capacity(o.count_);
    if (cap == 0) return;
    buf_ = ring_detail::allocate<T>(cap);
    mask_ = static_cast<std::uint32_t>(cap - 1);
    for (std::uint32_t i = 0; i < count_; ++i) buf_[i] = o.at(i);
  }
  RingDeque& operator=(const RingDeque& o) {
    if (this != &o) *this = RingDeque(o);
    return *this;
  }
  RingDeque(RingDeque&& o) noexcept
      : buf_(std::exchange(o.buf_, nullptr)),
        mask_(std::exchange(o.mask_, ~std::uint32_t{0})),
        head_(std::exchange(o.head_, 0)),
        count_(std::exchange(o.count_, 0)) {}
  RingDeque& operator=(RingDeque&& o) noexcept {
    if (this != &o) {
      ring_detail::release(buf_, capacity());
      buf_ = std::exchange(o.buf_, nullptr);
      mask_ = std::exchange(o.mask_, ~std::uint32_t{0});
      head_ = std::exchange(o.head_, 0);
      count_ = std::exchange(o.count_, 0);
    }
    return *this;
  }
  ~RingDeque() { ring_detail::release(buf_, capacity()); }

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  void push_back(T v) {
    if (count_ == capacity()) grow();
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

 private:
  // mask_ + 1 wraps to 0 before the first allocation.
  std::size_t capacity() const { return static_cast<std::uint32_t>(mask_ + 1); }

  void grow() {
    // First allocation is deliberately tiny: at 100k flows the per-subflow
    // staging queues dominated the "other" memory tag, and most queues never
    // hold more than a couple of entries (bench_scale's bytes per flow,
    // DESIGN.md §12.6).
    const std::size_t new_cap = capacity() == 0 ? 2 : capacity() * 2;
    assert(new_cap <= std::size_t{1} << 31);
    T* next = ring_detail::allocate<T>(new_cap);
    for (std::uint32_t i = 0; i < count_; ++i) next[i] = std::move(buf_[(head_ + i) & mask_]);
    ring_detail::release(buf_, capacity());
    buf_ = next;
    head_ = 0;
    mask_ = static_cast<std::uint32_t>(new_cap - 1);
  }

  T* buf_ = nullptr;
  std::uint32_t mask_ = ~std::uint32_t{0};  // capacity - 1 once allocated
  std::uint32_t head_ = 0;
  std::uint32_t count_ = 0;
};

// Dense map over a contiguous key range [lo, hi): every key in the range is
// present. push_back appends at hi, pop_front removes lo, and lookup is one
// masked index. This is exactly the shape of a TCP sender scoreboard.
template <typename T>
class SeqRing {
 public:
  SeqRing() = default;
  SeqRing(const SeqRing& o) : lo_(o.lo_), count_(o.count_) {
    const std::size_t cap = ring_copy_capacity(o.count_);
    if (cap == 0) return;
    buf_ = ring_detail::allocate<T>(cap);
    mask_ = static_cast<std::uint32_t>(cap - 1);
    for (std::uint64_t s = lo_; s != hi(); ++s) buf_[s & mask_] = o[s];
  }
  SeqRing& operator=(const SeqRing& o) {
    if (this != &o) *this = SeqRing(o);
    return *this;
  }
  SeqRing(SeqRing&& o) noexcept
      : buf_(std::exchange(o.buf_, nullptr)),
        lo_(std::exchange(o.lo_, 0)),
        mask_(std::exchange(o.mask_, ~std::uint32_t{0})),
        count_(std::exchange(o.count_, 0)) {}
  SeqRing& operator=(SeqRing&& o) noexcept {
    if (this != &o) {
      ring_detail::release(buf_, capacity());
      buf_ = std::exchange(o.buf_, nullptr);
      lo_ = std::exchange(o.lo_, 0);
      mask_ = std::exchange(o.mask_, ~std::uint32_t{0});
      count_ = std::exchange(o.count_, 0);
    }
    return *this;
  }
  ~SeqRing() { ring_detail::release(buf_, capacity()); }

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  std::uint64_t lo() const { return lo_; }
  std::uint64_t hi() const { return lo_ + count_; }

  // Appends the element for key hi().
  void push_back(T v) {
    if (count_ == capacity()) grow_to(std::size_t{count_} + 1);
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
    if (n > capacity()) grow_to(n);
  }

  // Resets to an empty range based at `lo` (fresh connection state).
  void reset(std::uint64_t lo) {
    *this = SeqRing();
    lo_ = lo;
  }

 private:
  // mask_ + 1 wraps to 0 before the first allocation.
  std::size_t capacity() const { return static_cast<std::uint32_t>(mask_ + 1); }

  void grow_to(std::size_t n) {
    // Same small-first policy as RingDeque::grow — idle flows keep a handful
    // of in-flight segments, so starting at 8 wasted most of the buffer.
    std::size_t new_cap = capacity() == 0 ? 2 : capacity() * 2;
    while (new_cap < n) new_cap *= 2;
    assert(new_cap <= std::size_t{1} << 31);
    T* next = ring_detail::allocate<T>(new_cap);
    const std::uint64_t new_mask = new_cap - 1;
    for (std::uint64_t s = lo_; s != hi(); ++s) next[s & new_mask] = std::move(buf_[s & mask_]);
    ring_detail::release(buf_, capacity());
    buf_ = next;
    mask_ = static_cast<std::uint32_t>(new_mask);
  }

  T* buf_ = nullptr;
  std::uint64_t lo_ = 0;
  std::uint32_t mask_ = ~std::uint32_t{0};  // capacity - 1 once allocated
  std::uint32_t count_ = 0;
};

// Sparse presence map over a bounded sliding key window: the live keys'
// span (max - min + 1) must fit the buffer, which grows by doubling. Lookup
// and insert are one masked index; ordered traversal scans the span, which
// for an out-of-order buffer is bounded by the flight size. Values and
// their presence bits share one block: `cap` values, then cap / 8 bytes of
// bits (the capacity is a power of two >= 8).
template <typename T>
class SeqWindow {
 public:
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};

  SeqWindow() = default;
  SeqWindow(const SeqWindow& o) : min_(o.min_), max_(o.max_), count_(o.count_) {
    if (o.vals_ == nullptr) return;
    allocate(o.capacity());
    std::copy_n(o.bits(), capacity() / 8, bits());
    if (count_ == 0) return;
    for (std::uint64_t k = min_; k <= max_; ++k) {
      if (present(k)) vals_[k & mask_] = o.vals_[k & mask_];
    }
  }
  SeqWindow& operator=(const SeqWindow&) = delete;
  ~SeqWindow() { release(); }

  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }
  // Lowest / highest live key; kNone when empty.
  std::uint64_t min_key() const { return count_ == 0 ? kNone : min_; }
  std::uint64_t max_key() const { return count_ == 0 ? kNone : max_; }

  bool contains(std::uint64_t key) const {
    return count_ != 0 && key >= min_ && key <= max_ && present(key);
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
    if (new_max - new_min + 1 > capacity()) grow(new_min, new_max);
    set_present(key, true);
    vals_[key & mask_] = std::move(v);
    min_ = new_min;
    max_ = new_max;
    ++count_;
    return true;
  }

  // Erases a present key.
  void erase(std::uint64_t key) {
    assert(contains(key));
    set_present(key, false);
    vals_[key & mask_] = T{};
    --count_;
    if (count_ == 0) return;
    // Only the bound that moved needs a rescan; drains erase the min, so
    // this is an amortized forward walk over the window.
    if (key == min_) {
      while (!present(min_)) ++min_;
    } else if (key == max_) {
      while (!present(max_)) --max_;
    }
  }

  // Lowest live key >= key; kNone when there is none.
  std::uint64_t first_at_or_after(std::uint64_t key) const {
    if (count_ == 0 || key > max_) return kNone;
    std::uint64_t k = std::max(key, min_);
    while (!present(k)) ++k;
    return k;
  }

 private:
  std::size_t capacity() const { return vals_ == nullptr ? 0 : std::size_t{mask_} + 1; }
  static std::size_t block_bytes(std::size_t cap) { return cap * sizeof(T) + cap / 8; }

  std::uint8_t* bits() const {
    return reinterpret_cast<std::uint8_t*>(vals_ + capacity());
  }
  bool present(std::uint64_t key) const {
    const std::uint64_t i = key & mask_;
    return (bits()[i >> 3] >> (i & 7)) & 1;
  }
  void set_present(std::uint64_t key, bool on) {
    const std::uint64_t i = key & mask_;
    const auto bit = static_cast<std::uint8_t>(1u << (i & 7));
    if (on) {
      bits()[i >> 3] |= bit;
    } else {
      bits()[i >> 3] &= static_cast<std::uint8_t>(~bit);
    }
  }

  // Points vals_ at a fresh block of `cap` value-initialized values and
  // clear bits.
  void allocate(std::size_t cap) {
    static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);
    assert(cap >= 8 && cap <= std::size_t{1} << 31);
    vals_ = static_cast<T*>(::operator new(block_bytes(cap)));
    std::uninitialized_value_construct_n(vals_, cap);
    mask_ = static_cast<std::uint32_t>(cap - 1);
    std::fill_n(bits(), cap / 8, std::uint8_t{0});
  }
  void release() {
    if (vals_ == nullptr) return;
    std::destroy_n(vals_, capacity());
    ::operator delete(vals_);
    vals_ = nullptr;
  }

  void grow(std::uint64_t new_min, std::uint64_t new_max) {
    std::size_t new_cap = capacity() == 0 ? 8 : capacity();
    while (new_max - new_min + 1 > new_cap) new_cap *= 2;
    SeqWindow next;
    next.allocate(new_cap);
    if (count_ != 0) {
      for (std::uint64_t k = min_; k <= max_; ++k) {
        if (!present(k)) continue;
        next.set_present(k, true);
        next.vals_[k & next.mask_] = std::move(vals_[k & mask_]);
      }
    }
    release();
    vals_ = std::exchange(next.vals_, nullptr);
    mask_ = next.mask_;
  }

  T* vals_ = nullptr;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
  std::uint32_t mask_ = ~std::uint32_t{0};  // capacity - 1 once allocated
  std::uint32_t count_ = 0;
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
