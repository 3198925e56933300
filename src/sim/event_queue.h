// Discrete-event engine primitives: the pending-event queue.
//
// Events scheduled at the same timestamp fire in scheduling order (FIFO),
// which keeps runs deterministic regardless of container internals.
//
// Storage is a generation-stamped slot arena with two homes for pending
// events, selected transparently per event:
//
//  - A hierarchical timer wheel (3 levels x 256 slots, 2^17 ns ~ 131 us per
//    tick) absorbs the dense near-future churn: RTO restarts, RACK timers,
//    link transmissions, churn arrivals. schedule and cancel are O(1) bucket
//    operations with no comparisons against unrelated events; a bucket is
//    sorted lazily, once, when the cursor reaches it.
//  - The indexed binary min-heap keeps events beyond the wheel horizon
//    (different 2^24-tick window, ~36 minutes) — sparse far-future work like
//    scenario phase changes — with O(log n) schedule/cancel.
//
// pop() compares the wheel's earliest (when, seq) against the heap top, so
// the merged fire order is the exact global (when, seq) order regardless of
// which structure holds an event; goldens are byte-identical to the
// heap-only queue by construction. Level placement uses the shared-prefix
// rule (an event goes to the deepest level whose window contains both it and
// the cursor), so no level ever wraps and cascades only move events downward
// as the cursor enters their window.
//
// cancel() removes the entry immediately in both homes — no tombstones, and
// size()/empty() are exact by construction. Stale ids are rejected by the
// slot's generation stamp, making cancel-after-fire and cancel-after-reuse
// safe no-ops.
#pragma once

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
  // (see Timer for the RAII wrapper).
  EventId schedule(TimePoint when, Callback fn);

  // Cancels a pending event. Cancelling an already-fired or unknown id is a
  // no-op.
  void cancel(EventId id);

  // True when `id` names a pending event: O(1), by the slot's generation.
  bool live(EventId id) const { return live_slot(id) != kNoPos; }

  bool empty() const { return heap_.empty() && wheel_count_ == 0; }
  std::size_t size() const { return heap_.size() + wheel_count_; }

  // Time of the earliest live event; TimePoint::never() when empty.
  // Non-const: locating the wheel minimum may advance the cursor, cascade a
  // bucket down a level, or sort the reached bucket (none of which changes
  // the event set or fire order).
  TimePoint next_time();

  struct Fired {
    TimePoint when;
    Callback fn;
  };
  // Pops and returns the earliest live event. Precondition: !empty().
  Fired pop();

  // --- snapshot-and-fork support (exp/snapshot.h) ---------------------------
  // Copies the entire queue structure from `src` — slot arena (when, seq,
  // generation, position), heap order, wheel buckets, occupancy bitmaps and
  // cursor — but leaves every callback empty. Closures capture raw owner
  // pointers and cannot be relocated generically, so each owner of a pending
  // event must re-install its callback with rebind() using the EventId it
  // already holds; ids issued by `src` stay valid against this queue, and the
  // global (when, seq) fire order is preserved verbatim. Any previous content
  // of this queue is discarded.
  void clone_structure_from(const EventQueue& src);

  // Re-installs the callback of a live cloned event. Returns false when `id`
  // does not name a live slot (fired, cancelled, or stale generation).
  bool rebind(EventId id, Callback fn);

  // Appends (id, when) for every live event whose callback is empty. After a
  // fork's rebind pass this must find nothing: a leftover means some owner's
  // pending event was never relocated and still points at the source world.
  void collect_unbound(std::vector<std::pair<EventId, TimePoint>>& out) const;

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

  enum class Loc : std::uint8_t { kNone, kHeap, kWheel };

  struct Slot {
    TimePoint when;
    std::uint64_t seq = 0;        // FIFO tie-break among equal timestamps
    std::uint32_t generation = 1; // bumped on release; stale ids never match
    std::uint32_t pos = kNoPos;   // index in heap_ or in its wheel bucket
    Loc loc = Loc::kNone;
    std::uint8_t level = 0;       // wheel level (loc == kWheel)
    std::uint8_t bucket = 0;      // wheel bucket index (loc == kWheel)
    Callback fn;
  };

  struct Bucket {
    std::vector<std::uint32_t> items;  // slot numbers
    // Buckets collect unsorted; the one the cursor reaches is sorted once,
    // descending by (when, seq), so the minimum pops from the back in O(1).
    bool sorted = false;
  };

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

  bool earlier(std::uint32_t a, std::uint32_t b) const {
    const Slot& sa = slots_[a];
    const Slot& sb = slots_[b];
    if (sa.when != sb.when) return sa.when < sb.when;
    return sa.seq < sb.seq;
  }

  // --- heap home ----------------------------------------------------------
  void sift_up(std::uint32_t pos);
  void sift_down(std::uint32_t pos);
  void place(std::uint32_t pos, std::uint32_t slot) {
    heap_[pos] = slot;
    slots_[slot].pos = pos;
  }
  void heap_insert(std::uint32_t slot);
  // Detaches heap_[pos] from the heap and restores heap order.
  void remove_from_heap(std::uint32_t pos);

  // --- wheel home ---------------------------------------------------------
  static std::uint64_t tick_of(TimePoint when) {
    return static_cast<std::uint64_t>(when.ns()) >> kTickBits;
  }
  // Places `slot` in a wheel bucket (true) or reports it belongs in the
  // heap (false). Does not touch wheel_count_.
  bool wheel_insert(std::uint32_t slot);
  void bucket_add(int level, std::uint32_t bucket, std::uint32_t slot);
  void bucket_remove(int level, std::uint32_t bucket, std::uint32_t pos);
  void sort_bucket(Bucket& b);
  // Re-places every event of wheel_[level][bucket] one or more levels down
  // (called when the cursor enters that bucket's window).
  void cascade(int level, std::uint32_t bucket);
  // First occupied bucket index >= from at `level`, or kSlotsPerLevel.
  std::uint32_t scan_occupancy(int level, std::uint32_t from) const;
  // Slot number of the wheel's earliest event, advancing the cursor and
  // cascading as needed; kNoPos when the wheel is empty. After a successful
  // call the result is the back of its (sorted) level-0 bucket.
  std::uint32_t locate_wheel_min();

  void set_occ(int level, std::uint32_t bucket) {
    occ_[level][bucket >> 6] |= std::uint64_t{1} << (bucket & 63);
  }
  void clear_occ(int level, std::uint32_t bucket) {
    occ_[level][bucket >> 6] &= ~(std::uint64_t{1} << (bucket & 63));
  }

  // Returns the slot to the free list (destroys its callback).
  void release(std::uint32_t slot);

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> heap_;  // slot numbers, min-heap by (when, seq)
  std::vector<std::uint32_t> free_;  // released slot numbers, reused LIFO
  std::uint64_t next_seq_ = 1;

  std::vector<Bucket> wheel_;  // kLevels * kSlotsPerLevel buckets
  std::uint64_t occ_[kLevels][kSlotsPerLevel / 64] = {};
  std::uint64_t cur_tick_ = 0;  // tick of the wheel's scan cursor (monotone)
  std::size_t wheel_count_ = 0;
  std::vector<std::uint32_t> cascade_scratch_;  // reused by cascade()
};

}  // namespace mps
