// Discrete-event engine primitives: the pending-event queue.
//
// Events scheduled at the same timestamp fire in scheduling order (FIFO):
// every event carries a global sequence number and the queue fires in exact
// (when, seq) order, which keeps runs deterministic regardless of container
// internals.
//
// Storage is a generation-stamped slot arena. A pending event lives in one
// of three homes:
//
//  - A hierarchical timer wheel (3 levels x 256 buckets, 2^17 ns ~ 131 us
//    per tick) absorbs the dense near-future churn: RTO restarts, RACK
//    timers, link transmissions, churn arrivals. Each bucket is an intrusive
//    doubly-linked list threaded through the slot arena, so schedule and
//    cancel are O(1) link/unlink operations and nothing is ever sorted.
//  - The ready heap holds every event at or behind the cursor's tick: the
//    bucket the cursor just reached (drained into it in one pass), plus
//    same-tick and overdue schedules. Keys are 16 bytes, (when, seq<<24 |
//    slot), so ordering never touches the slot arena.
//  - The far heap holds events beyond the wheel horizon (a different 2^24-
//    tick window, ~36.6 minutes) with the same keys.
//
// A pop takes the smaller of the two heap tops, advancing the cursor to the
// next occupied bucket only when the ready heap has no live key left, so the
// merged fire order is the exact global (when, seq) order whichever home an
// event sat in. Level placement uses the shared-prefix rule (an event goes
// to the deepest level whose window contains both it and the cursor), so no
// level ever wraps and a drain only moves events downward.
//
// postpone() only re-stamps a wheel resident (its bucket is a lower bound
// on its time), so a drain may also send a resident to a later bucket.
//
// cancel() unlinks a wheel resident at once. A heap key is left in place and
// dropped when it reaches the top: releasing a slot zeroes its seq, so a key
// is live only while its seq still matches its slot's. size()/empty() are
// exact by live counters, and stale ids are rejected by the slot's generation
// stamp, making cancel-after-fire and cancel-after-reuse safe no-ops.
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/callback.h"
#include "util/time.h"

namespace mps {

using EventId = std::uint64_t;
constexpr EventId kInvalidEventId = 0;

class EventQueue {
 public:
  EventQueue();

  // Schedules `fn` at absolute time `when`. Returns an id usable with
  // cancel(). Owners must cancel events capturing them before destruction
  // (see Timer for the RAII wrapper). Throws std::length_error past 2^24
  // simultaneously pending events or 2^40 stamps (the heap keys' fields).
  EventId schedule(TimePoint when, Callback fn);

  // Reserved stamps: an event placed later with a stamp from reserve_seq()
  // ranks exactly as if schedule() had run when the stamp was taken. The
  // caller must place it before any event ranked after it fires.
  std::uint64_t reserve_seq();
  EventId schedule_reserved(TimePoint when, std::uint64_t seq, Callback fn);

  // Gives a live event the later time `when`, a fresh stamp and `fn` (the
  // rank a cancel plus schedule would give) without unlinking it; a heap
  // resident's old key goes stale. Returns false, leaving `fn` untouched,
  // for an id that is not live or a `when` earlier than the event's.
  bool postpone(EventId id, TimePoint when, Callback&& fn);

  // Cancels a pending event. Cancelling an already-fired or unknown id is a
  // no-op.
  void cancel(EventId id);

  // True when `id` names a pending event: O(1), by the slot's generation.
  bool live(EventId id) const { return live_slot(id) != kNoPos; }

  bool empty() const { return size() == 0; }
  std::size_t size() const { return wheel_live_ + ready_live_ + far_live_; }

  // Time of the earliest live event; TimePoint::never() when empty.
  // Non-const: locating the minimum may advance the cursor and drain a
  // bucket, or drop cancelled keys (none of which changes the event set or
  // fire order).
  TimePoint next_time();

  struct Fired {
    TimePoint when;
    std::uint64_t seq = 0;
    Callback fn;
  };
  // Pops the earliest live event into `out` if there is one at or before
  // `deadline`; returns false (leaving `out` alone) otherwise. One locate
  // per event: the run loop's only call into the queue.
  bool pop_until(TimePoint deadline, Fired& out);

  // Pops and returns the earliest live event. Precondition: !empty().
  Fired pop() {
    Fired fired;
    const bool ok = pop_until(TimePoint::never(), fired);
    assert(ok);
    (void)ok;
    return fired;
  }

  // --- snapshot-and-fork support (exp/snapshot.h) ---------------------------
  // Copies the entire queue structure from `src` — slot arena (when, seq,
  // generation, bucket links), both heaps with their stale keys, bucket
  // heads, occupancy bitmaps, free list and cursor — but leaves every
  // callback empty. Closures capture raw owner pointers and cannot be
  // relocated generically, so each owner of a pending event must re-install
  // its callback with rebind() using the EventId it already holds; ids
  // issued by `src` stay valid against this queue, and the global (when, seq)
  // fire order is preserved verbatim. Any previous content of this queue is
  // discarded.
  void clone_structure_from(const EventQueue& src);

  // Re-installs the callback of a live cloned event. Returns false when `id`
  // does not name a live slot (fired, cancelled, or stale generation).
  bool rebind(EventId id, Callback fn);

  // Appends (id, when) for every live event whose callback is empty. After a
  // fork's rebind pass this must find nothing: a leftover means some owner's
  // pending event was never relocated and still points at the source world.
  void collect_unbound(std::vector<std::pair<EventId, TimePoint>>& out) const;

  // Drops every pending event in one pass, for a queue whose owners are
  // about to be torn down: their destructors' cancels then find an empty
  // arena and return without touching it. Nothing may be scheduled
  // afterwards — slots restart at 0 and could match an id issued before.
  void discard_all();

 private:
  static constexpr std::uint32_t kNoPos = ~std::uint32_t{0};

  // Wheel geometry. tick = 2^17 ns ~ 131 us; level spans ~33.6 ms / ~8.6 s /
  // ~36.7 min. Chosen so RTO/RACK restarts (tens to hundreds of ms) land in
  // levels 0-1 and anything a simulation plausibly schedules stays on-wheel.
  static constexpr int kTickBits = 17;
  static constexpr int kLevelBits = 8;
  static constexpr int kLevels = 3;
  static constexpr std::uint32_t kSlotsPerLevel = 1u << kLevelBits;
  static constexpr std::uint32_t kSlotMask = kSlotsPerLevel - 1;
  // Heap keys pack the slot number into the low bits of the seq field.
  static constexpr int kSlotBits = 24;
  static constexpr std::uint64_t kKeySlotMask = (std::uint64_t{1} << kSlotBits) - 1;

  enum class Loc : std::uint8_t { kNone, kWheel, kReady, kFar };

  struct Slot {
    TimePoint when;
    std::uint64_t seq = 0;         // FIFO tie-break; 0 while the slot is free
    std::uint32_t generation = 1;  // bumped on release; stale ids never match
    std::uint32_t next = kNoPos;   // bucket list links (loc == kWheel)
    std::uint32_t prev = kNoPos;
    std::uint16_t bucket = 0;      // level * kSlotsPerLevel + index (kWheel)
    Loc loc = Loc::kNone;
    Callback fn;
  };
  static_assert(sizeof(Slot) <= 64, "a queue slot must stay within 64 bytes");

  struct Key {
    std::int64_t when;
    std::uint64_t tag;  // seq << kSlotBits | slot
  };
  // Heap comparator: true when `a` fires after `b` (std heaps keep the max).
  static bool later(const Key& a, const Key& b) {
    return a.when != b.when ? a.when > b.when : a.tag > b.tag;
  }

  // Ids pack (generation, slot + 1); the +1 keeps kInvalidEventId unused.
  static EventId make_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(generation) << 32) | (slot + 1);
  }
  // Slot number of a pending event, or kNoPos when `id` is invalid, fired,
  // cancelled, or a stale id on a reused slot.
  std::uint32_t live_slot(EventId id) const {
    const std::uint32_t slot = static_cast<std::uint32_t>(id & 0xffffffffu) - 1;
    if (id == kInvalidEventId || slot >= slots_.size()) return kNoPos;
    const Slot& s = slots_[slot];
    if (s.generation != static_cast<std::uint32_t>(id >> 32) || s.loc == Loc::kNone) {
      return kNoPos;
    }
    return slot;
  }
  bool key_live(const Key& k) const {
    return slots_[k.tag & kKeySlotMask].seq == (k.tag >> kSlotBits);
  }

  static std::uint64_t tick_of(TimePoint when) {
    return static_cast<std::uint64_t>(when.ns()) >> kTickBits;
  }
  // Files `slot` in its home for the current cursor and counts it live there.
  // With sift false a ready key is appended without restoring the heap.
  void place(std::uint32_t slot, bool sift = true);
  void push_key(std::vector<Key>& heap, std::uint32_t slot, bool sift = true);
  void pop_key(std::vector<Key>& heap);
  void drop_stale(std::vector<Key>& heap);
  // Rebuilds `heap` without its stale keys once they outnumber the live ones
  // by more than 64.
  void maybe_compact(std::vector<Key>& heap, std::size_t live);
  void link(std::uint32_t bucket, std::uint32_t slot);
  void unlink(std::uint32_t slot);
  // Moves the cursor to the next occupied bucket (any level) and re-places
  // its residents. Precondition: wheel_live_ > 0.
  void advance();
  // First occupied bucket index >= from at `level`, or kSlotsPerLevel.
  std::uint32_t scan_occupancy(int level, std::uint32_t from) const;
  // The heap whose top is the earliest live event (both tops made live), or
  // nullptr when the queue is empty.
  std::vector<Key>* locate_min();

  // Returns the slot to the free list (destroys its callback, zeroes seq).
  void release(std::uint32_t slot);

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  // released slot numbers, reused LIFO
  std::uint64_t next_seq_ = 1;

  std::vector<Key> ready_;  // min-heap: ticks <= cur_tick_
  std::vector<Key> far_;    // min-heap: beyond the wheel horizon
  std::vector<std::uint32_t> heads_;  // kLevels * kSlotsPerLevel list heads
  std::uint64_t occ_[kLevels][kSlotsPerLevel / 64] = {};
  std::uint64_t cur_tick_ = 0;  // tick of the wheel's scan cursor
  std::size_t wheel_live_ = 0;
  std::size_t ready_live_ = 0;
  std::size_t far_live_ = 0;
  bool discarded_ = false;  // discard_all() ran; scheduling is a bug (asserted)
};

}  // namespace mps
