#include "sim/event_queue.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "obs/prof.h"

namespace mps {

EventQueue::EventQueue() : heads_(kLevels * kSlotsPerLevel, kNoPos) {}

std::uint64_t EventQueue::reserve_seq() {
  if (next_seq_ >> (64 - kSlotBits) != 0) {
    throw std::length_error("EventQueue: more than 2^40 events scheduled");
  }
  return next_seq_++;
}

EventId EventQueue::schedule(TimePoint when, Callback fn) {
  return schedule_reserved(when, reserve_seq(), std::move(fn));
}

EventId EventQueue::schedule_reserved(TimePoint when, std::uint64_t seq, Callback fn) {
  MPS_PROF_MEM_SCOPE(kEvents);
  assert(!discarded_ && "EventQueue: schedule after discard_all()");
  // Checked before a slot is taken, so a throw leaves the slots unchanged.
  if (free_.empty() && slots_.size() > kKeySlotMask) {
    throw std::length_error("EventQueue: more than 2^24 pending events");
  }
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
  s.seq = seq;
  s.fn = std::move(fn);

  // With nothing pending near the cursor it carries no placement history, so
  // it can jump (even backwards) to this event's tick: the wheel then keeps
  // covering near-future work however far simulated time has advanced. Any
  // keys left in the ready heap are stale.
  if (wheel_live_ == 0 && ready_live_ == 0) {
    ready_.clear();
    cur_tick_ = tick_of(when);
  }
  place(slot);
  return make_id(slot, s.generation);
}

void EventQueue::cancel(EventId id) {
  const std::uint32_t slot = live_slot(id);
  if (slot == kNoPos) return;  // already fired, already cancelled, or stale
  const Loc loc = slots_[slot].loc;
  if (loc == Loc::kWheel) unlink(slot);
  release(slot);
  switch (loc) {
    case Loc::kWheel: --wheel_live_; break;
    case Loc::kReady: maybe_compact(ready_, --ready_live_); break;
    case Loc::kFar: maybe_compact(far_, --far_live_); break;
    case Loc::kNone: break;
  }
}

bool EventQueue::postpone(EventId id, TimePoint when, Callback&& fn) {
  const std::uint32_t slot = live_slot(id);
  if (slot == kNoPos || when < slots_[slot].when) return false;
  const std::uint64_t seq = reserve_seq();
  Slot& s = slots_[slot];
  s.when = when;
  s.seq = seq;  // any heap key with the old stamp is stale from here on
  s.fn = std::move(fn);
  if (s.loc != Loc::kWheel) {
    const bool ready = s.loc == Loc::kReady;
    std::size_t& live = ready ? ready_live_ : far_live_;
    --live;
    place(slot);
    maybe_compact(ready ? ready_ : far_, live);
  }
  return true;
}

TimePoint EventQueue::next_time() {
  MPS_PROF_MEM_SCOPE(kEvents);
  const std::vector<Key>* heap = locate_min();
  return heap == nullptr ? TimePoint::never() : TimePoint::from_ns(heap->front().when);
}

bool EventQueue::pop_until(TimePoint deadline, Fired& out) {
  MPS_PROF_MEM_SCOPE(kEvents);
  std::vector<Key>* heap = locate_min();
  if (heap == nullptr || heap->front().when > deadline.ns()) return false;
  const std::uint32_t slot = static_cast<std::uint32_t>(heap->front().tag & kKeySlotMask);
  pop_key(*heap);
  --(heap == &ready_ ? ready_live_ : far_live_);
  Slot& s = slots_[slot];
  out.when = s.when;
  out.seq = s.seq;
  out.fn = std::move(s.fn);
  release(slot);
  return true;
}

std::vector<EventQueue::Key>* EventQueue::locate_min() {
  drop_stale(ready_);
  // A drain may move everything to lower levels; its ready keys are all live.
  while (ready_.empty() && wheel_live_ > 0) advance();
  drop_stale(far_);
  if (ready_.empty()) return far_.empty() ? nullptr : &far_;
  if (far_.empty() || later(far_.front(), ready_.front())) return &ready_;
  return &far_;
}

void EventQueue::place(std::uint32_t slot, bool sift) {
  Slot& s = slots_[slot];
  const std::uint64_t t = tick_of(s.when);
  // At or behind the cursor's tick: the ready heap restores the exact
  // (when, seq) rank, so overdue timestamps still fire in global order.
  if (t <= cur_tick_) {
    s.loc = Loc::kReady;
    push_key(ready_, slot, sift);
    ++ready_live_;
    return;
  }
  for (int level = 0; level < kLevels; ++level) {
    const int above = (level + 1) * kLevelBits;
    if ((t >> above) == (cur_tick_ >> above)) {
      const std::uint32_t index = static_cast<std::uint32_t>(t >> (level * kLevelBits)) & kSlotMask;
      link(static_cast<std::uint32_t>(level) * kSlotsPerLevel + index, slot);
      ++wheel_live_;
      return;
    }
  }
  s.loc = Loc::kFar;  // beyond the wheel horizon
  push_key(far_, slot);
  ++far_live_;
}

void EventQueue::push_key(std::vector<Key>& heap, std::uint32_t slot, bool sift) {
  const Slot& s = slots_[slot];
  heap.push_back({s.when.ns(), (s.seq << kSlotBits) | slot});
  if (sift) std::push_heap(heap.begin(), heap.end(), later);
}

void EventQueue::pop_key(std::vector<Key>& heap) {
  std::pop_heap(heap.begin(), heap.end(), later);
  heap.pop_back();
}

void EventQueue::drop_stale(std::vector<Key>& heap) {
  while (!heap.empty() && !key_live(heap.front())) pop_key(heap);
}

void EventQueue::maybe_compact(std::vector<Key>& heap, std::size_t live) {
  if (heap.size() <= 2 * live + 64) return;
  heap.erase(std::remove_if(heap.begin(), heap.end(),
                            [this](const Key& k) { return !key_live(k); }),
             heap.end());
  std::make_heap(heap.begin(), heap.end(), later);
}

void EventQueue::link(std::uint32_t bucket, std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.loc = Loc::kWheel;
  s.bucket = static_cast<std::uint16_t>(bucket);
  s.prev = kNoPos;
  s.next = heads_[bucket];
  if (s.next != kNoPos) slots_[s.next].prev = slot;
  heads_[bucket] = slot;
  occ_[bucket >> kLevelBits][(bucket & kSlotMask) >> 6] |= std::uint64_t{1} << (bucket & 63);
}

void EventQueue::unlink(std::uint32_t slot) {
  const Slot& s = slots_[slot];
  if (s.next != kNoPos) slots_[s.next].prev = s.prev;
  if (s.prev != kNoPos) {
    slots_[s.prev].next = s.next;
    return;
  }
  heads_[s.bucket] = s.next;
  if (s.next == kNoPos) {
    occ_[s.bucket >> kLevelBits][(s.bucket & kSlotMask) >> 6] &=
        ~(std::uint64_t{1} << (s.bucket & 63));
  }
}

void EventQueue::advance() {
  assert(wheel_live_ > 0);
  for (int level = 0; level < kLevels; ++level) {
    // Occupied buckets only exist after the cursor's position within its
    // window at each level (placement is by shared prefix and the cursor
    // never passes a non-empty bucket), so the first occupied position after
    // it holds the wheel-wide earliest tick once every lower level is empty.
    const int shift = level * kLevelBits;
    const std::uint32_t pos = static_cast<std::uint32_t>(cur_tick_ >> shift) & kSlotMask;
    const std::uint32_t found = scan_occupancy(level, pos + 1);
    if (found == kSlotsPerLevel) continue;
    // Enter the bucket's window and re-place its residents: the ones at the
    // new cursor tick go to the ready heap, the rest strictly lower levels,
    // or anywhere later when postpone() moved their time on.
    const int above = shift + kLevelBits;
    cur_tick_ = ((cur_tick_ >> above) << above) | (std::uint64_t{found} << shift);
    const std::uint32_t bucket = static_cast<std::uint32_t>(level) * kSlotsPerLevel + found;
    std::uint32_t slot = heads_[bucket];
    heads_[bucket] = kNoPos;
    occ_[level][found >> 6] &= ~(std::uint64_t{1} << (found & 63));
    // The ready heap is empty here (locate_min drains it first), and a
    // bucket lists its residents newest first, so sifting each one in would
    // take it to the root: append them and heapify once.
    assert(ready_.empty());
    while (slot != kNoPos) {
      const std::uint32_t next = slots_[slot].next;
      --wheel_live_;
      place(slot, /*sift=*/false);
      assert(slots_[slot].loc != Loc::kWheel || slots_[slot].bucket != bucket);
      slot = next;
    }
    std::make_heap(ready_.begin(), ready_.end(), later);
    return;
  }
  assert(false && "wheel_live_ > 0 with every level empty");
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

void EventQueue::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.reset();
  s.seq = 0;
  s.loc = Loc::kNone;
  ++s.generation;
  free_.push_back(slot);
}

void EventQueue::clone_structure_from(const EventQueue& src) {
  // One write per slot: appended into reserved room, not value-initialised
  // by a resize and then overwritten.
  slots_.clear();
  slots_.reserve(src.slots_.size());
  for (const Slot& from : src.slots_) {
    Slot& to = slots_.emplace_back();
    to.when = from.when;
    to.seq = from.seq;
    to.generation = from.generation;
    to.next = from.next;
    to.prev = from.prev;
    to.bucket = from.bucket;
    to.loc = from.loc;
    // to.fn stays empty until the owner rebinds it.
  }
  free_ = src.free_;
  next_seq_ = src.next_seq_;
  ready_ = src.ready_;
  far_ = src.far_;
  heads_ = src.heads_;
  std::memcpy(occ_, src.occ_, sizeof(occ_));
  cur_tick_ = src.cur_tick_;
  wheel_live_ = src.wheel_live_;
  ready_live_ = src.ready_live_;
  far_live_ = src.far_live_;
}

bool EventQueue::rebind(EventId id, Callback fn) {
  const std::uint32_t slot = live_slot(id);
  if (slot == kNoPos) return false;
  slots_[slot].fn = std::move(fn);
  return true;
}

void EventQueue::discard_all() {
  slots_ = std::vector<Slot>();
  free_ = std::vector<std::uint32_t>();
  ready_ = std::vector<Key>();
  far_ = std::vector<Key>();
  std::fill(heads_.begin(), heads_.end(), kNoPos);
  std::memset(occ_, 0, sizeof(occ_));
  wheel_live_ = ready_live_ = far_live_ = 0;
  discarded_ = true;
}

void EventQueue::collect_unbound(std::vector<std::pair<EventId, TimePoint>>& out) const {
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    const Slot& s = slots_[i];
    if (s.loc != Loc::kNone && !s.fn) out.emplace_back(make_id(i, s.generation), s.when);
  }
}

}  // namespace mps
