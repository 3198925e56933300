#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "obs/prof.h"

namespace mps {

EventQueue::EventQueue() : wheel_(kLevels * kSlotsPerLevel) {}

EventId EventQueue::schedule(TimePoint when, Callback fn) {
  MPS_PROF_MEM_SCOPE(kEvents);
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  s.when = when;
  s.seq = next_seq_++;
  s.fn = std::move(fn);

  // With no wheel residents the cursor carries no placement history, so it
  // can jump (even backwards) to this event's tick: the wheel then keeps
  // covering near-future work however far simulated time has advanced.
  if (wheel_count_ == 0) cur_tick_ = tick_of(when);
  if (wheel_insert(slot)) {
    ++wheel_count_;
  } else {
    heap_insert(slot);
  }
  return make_id(slot, s.generation);
}

void EventQueue::cancel(EventId id) {
  const std::uint32_t slot = live_slot(id);
  if (slot == kNoPos) return;  // already fired, already cancelled, or stale
  Slot& s = slots_[slot];
  if (s.loc == Loc::kHeap) {
    remove_from_heap(s.pos);
  } else {
    bucket_remove(s.level, s.bucket, s.pos);
    --wheel_count_;
  }
  release(slot);
}

TimePoint EventQueue::next_time() {
  MPS_PROF_MEM_SCOPE(kEvents);
  const std::uint32_t wmin = locate_wheel_min();
  if (wmin == kNoPos) {
    return heap_.empty() ? TimePoint::never() : slots_[heap_.front()].when;
  }
  if (heap_.empty() || earlier(wmin, heap_.front())) return slots_[wmin].when;
  return slots_[heap_.front()].when;
}

EventQueue::Fired EventQueue::pop() {
  MPS_PROF_MEM_SCOPE(kEvents);
  const std::uint32_t wmin = locate_wheel_min();
  if (wmin != kNoPos && (heap_.empty() || earlier(wmin, heap_.front()))) {
    Slot& s = slots_[wmin];
    Fired fired{s.when, std::move(s.fn)};
    bucket_remove(0, s.bucket, s.pos);  // min sits at the back: O(1) erase
    --wheel_count_;
    release(wmin);
    return fired;
  }
  assert(!heap_.empty());
  const std::uint32_t slot = heap_.front();
  Slot& s = slots_[slot];
  Fired fired{s.when, std::move(s.fn)};
  remove_from_heap(0);
  release(slot);
  return fired;
}

void EventQueue::sift_up(std::uint32_t pos) {
  const std::uint32_t slot = heap_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 2;
    if (!earlier(slot, heap_[parent])) break;
    place(pos, heap_[parent]);
    pos = parent;
  }
  place(pos, slot);
}

void EventQueue::sift_down(std::uint32_t pos) {
  const std::uint32_t slot = heap_[pos];
  const std::uint32_t n = static_cast<std::uint32_t>(heap_.size());
  while (true) {
    std::uint32_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && earlier(heap_[child + 1], heap_[child])) ++child;
    if (!earlier(heap_[child], slot)) break;
    place(pos, heap_[child]);
    pos = child;
  }
  place(pos, slot);
}

void EventQueue::heap_insert(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.loc = Loc::kHeap;
  const std::uint32_t pos = static_cast<std::uint32_t>(heap_.size());
  heap_.push_back(slot);
  s.pos = pos;
  sift_up(pos);
}

void EventQueue::remove_from_heap(std::uint32_t pos) {
  slots_[heap_[pos]].pos = kNoPos;
  const std::uint32_t last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) return;  // removed the tail entry
  place(pos, last);
  // The moved entry may violate order in either direction.
  sift_down(pos);
  sift_up(slots_[last].pos);
}

bool EventQueue::wheel_insert(std::uint32_t slot) {
  Slot& s = slots_[slot];
  std::uint64_t t = tick_of(s.when);
  // An event at or behind the cursor's tick joins the current bucket; its
  // exact (when, seq) rank is restored by the bucket sort, so overdue
  // timestamps (scheduled after the cursor advanced) still fire in global
  // order.
  if (t <= cur_tick_) t = cur_tick_;
  int level;
  if ((t >> kLevelBits) == (cur_tick_ >> kLevelBits)) {
    level = 0;
  } else if ((t >> (2 * kLevelBits)) == (cur_tick_ >> (2 * kLevelBits))) {
    level = 1;
  } else if ((t >> (3 * kLevelBits)) == (cur_tick_ >> (3 * kLevelBits))) {
    level = 2;
  } else {
    return false;  // beyond the wheel horizon: heap
  }
  bucket_add(level, static_cast<std::uint32_t>(t >> (level * kLevelBits)) & kSlotMask, slot);
  return true;
}

void EventQueue::bucket_add(int level, std::uint32_t bucket, std::uint32_t slot) {
  Bucket& b = wheel_[static_cast<std::size_t>(level) * kSlotsPerLevel + bucket];
  Slot& s = slots_[slot];
  s.loc = Loc::kWheel;
  s.level = static_cast<std::uint8_t>(level);
  s.bucket = static_cast<std::uint8_t>(bucket);
  if (b.sorted) {
    // Keep descending (when, seq) order: insert before the first entry that
    // is not later than `slot`.
    const auto it = std::lower_bound(
        b.items.begin(), b.items.end(), slot,
        [this](std::uint32_t lhs, std::uint32_t rhs) { return earlier(rhs, lhs); });
    const std::uint32_t idx = static_cast<std::uint32_t>(it - b.items.begin());
    b.items.insert(it, slot);
    for (std::uint32_t i = idx; i < b.items.size(); ++i) slots_[b.items[i]].pos = i;
  } else {
    s.pos = static_cast<std::uint32_t>(b.items.size());
    b.items.push_back(slot);
  }
  set_occ(level, bucket);
}

void EventQueue::bucket_remove(int level, std::uint32_t bucket, std::uint32_t pos) {
  Bucket& b = wheel_[static_cast<std::size_t>(level) * kSlotsPerLevel + bucket];
  assert(pos < b.items.size());
  if (b.sorted) {
    b.items.erase(b.items.begin() + pos);
    for (std::uint32_t i = pos; i < b.items.size(); ++i) slots_[b.items[i]].pos = i;
  } else {
    b.items[pos] = b.items.back();
    slots_[b.items[pos]].pos = pos;
    b.items.pop_back();
  }
  if (b.items.empty()) {
    b.sorted = false;
    clear_occ(level, bucket);
  }
}

void EventQueue::sort_bucket(Bucket& b) {
  std::sort(b.items.begin(), b.items.end(),
            [this](std::uint32_t lhs, std::uint32_t rhs) { return earlier(rhs, lhs); });
  for (std::uint32_t i = 0; i < b.items.size(); ++i) slots_[b.items[i]].pos = i;
  b.sorted = true;
}

void EventQueue::cascade(int level, std::uint32_t bucket) {
  Bucket& b = wheel_[static_cast<std::size_t>(level) * kSlotsPerLevel + bucket];
  std::swap(cascade_scratch_, b.items);
  b.sorted = false;
  clear_occ(level, bucket);
  for (const std::uint32_t slot : cascade_scratch_) {
    // Every resident of this bucket shares the cursor's new window prefix,
    // so it re-places strictly below `level` (never back to the heap).
    const bool placed = wheel_insert(slot);
    (void)placed;
    assert(placed && slots_[slot].level < level);
  }
  cascade_scratch_.clear();
}

std::uint32_t EventQueue::scan_occupancy(int level, std::uint32_t from) const {
  if (from >= kSlotsPerLevel) return kSlotsPerLevel;
  std::uint32_t word = from >> 6;
  std::uint64_t bits = occ_[level][word] & (~std::uint64_t{0} << (from & 63));
  while (true) {
    if (bits != 0) {
      return (word << 6) + static_cast<std::uint32_t>(__builtin_ctzll(bits));
    }
    if (++word >= kSlotsPerLevel / 64) return kSlotsPerLevel;
    bits = occ_[level][word];
  }
}

std::uint32_t EventQueue::locate_wheel_min() {
  if (wheel_count_ == 0) return kNoPos;
  while (true) {
    // Occupied level-0 buckets only exist at or after the cursor's position
    // within the current window (placements behind the cursor clamp to its
    // bucket; the cursor never passes a non-empty bucket), so the first
    // occupied position holds the wheel-wide earliest tick.
    const std::uint32_t p0 =
        scan_occupancy(0, static_cast<std::uint32_t>(cur_tick_) & kSlotMask);
    if (p0 < kSlotsPerLevel) {
      cur_tick_ = (cur_tick_ & ~std::uint64_t{kSlotMask}) | p0;
      Bucket& b = wheel_[p0];
      if (!b.sorted) sort_bucket(b);
      return b.items.back();
    }
    // Level-0 window exhausted; enter the next occupied level-1 bucket and
    // spill it into level 0 (level-1 residents are strictly after the old
    // window, so this preserves fire order).
    const std::uint32_t pos1 =
        static_cast<std::uint32_t>(cur_tick_ >> kLevelBits) & kSlotMask;
    const std::uint32_t p1 = scan_occupancy(1, pos1 + 1);
    if (p1 < kSlotsPerLevel) {
      cur_tick_ = ((cur_tick_ >> (2 * kLevelBits)) << (2 * kLevelBits)) |
                  (std::uint64_t{p1} << kLevelBits);
      cascade(1, p1);
      continue;
    }
    const std::uint32_t pos2 =
        static_cast<std::uint32_t>(cur_tick_ >> (2 * kLevelBits)) & kSlotMask;
    const std::uint32_t p2 = scan_occupancy(2, pos2 + 1);
    // wheel_count_ > 0 with levels 0-1 drained means level 2 is occupied.
    assert(p2 < kSlotsPerLevel);
    cur_tick_ = ((cur_tick_ >> (3 * kLevelBits)) << (3 * kLevelBits)) |
                (std::uint64_t{p2} << (2 * kLevelBits));
    cascade(2, p2);
  }
}

void EventQueue::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.reset();
  s.pos = kNoPos;
  s.loc = Loc::kNone;
  ++s.generation;
  free_.push_back(slot);
}

void EventQueue::clone_structure_from(const EventQueue& src) {
  slots_.clear();
  slots_.resize(src.slots_.size());
  for (std::size_t i = 0; i < src.slots_.size(); ++i) {
    const Slot& from = src.slots_[i];
    Slot& to = slots_[i];
    to.when = from.when;
    to.seq = from.seq;
    to.generation = from.generation;
    to.pos = from.pos;
    to.loc = from.loc;
    to.level = from.level;
    to.bucket = from.bucket;
    // to.fn stays empty until the owner rebinds it.
  }
  heap_ = src.heap_;
  free_ = src.free_;
  next_seq_ = src.next_seq_;
  for (std::size_t i = 0; i < wheel_.size(); ++i) {
    wheel_[i].items = src.wheel_[i].items;
    wheel_[i].sorted = src.wheel_[i].sorted;
  }
  std::memcpy(occ_, src.occ_, sizeof(occ_));
  cur_tick_ = src.cur_tick_;
  wheel_count_ = src.wheel_count_;
}

bool EventQueue::rebind(EventId id, Callback fn) {
  const std::uint32_t slot = live_slot(id);
  if (slot == kNoPos) return false;
  slots_[slot].fn = std::move(fn);
  return true;
}

void EventQueue::collect_unbound(std::vector<std::pair<EventId, TimePoint>>& out) const {
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    const Slot& s = slots_[i];
    if (s.loc != Loc::kNone && !s.fn) out.emplace_back(make_id(i, s.generation), s.when);
  }
}

}  // namespace mps
