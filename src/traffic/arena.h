// Pooled slab allocator for churned per-flow protocol state.
//
// The traffic engine creates and destroys a Connection (plus its Subflows
// and SubflowReceivers) for every arrival; at 100k+ flows that is millions
// of same-sized global-heap round trips, each paying allocator locking and
// scattering flow state across the heap. SlabPool carves fixed-size blocks
// out of large slabs and recycles them through a LIFO free list, so steady-
// state churn reuses hot, cache-resident slots and never touches the global
// allocator.
//
// Connection, Subflow, SubflowReceiver, HttpExchange and the schedulers opt
// in by deriving from ArenaAllocated<T>, whose class-level operator
// new/delete forward to arena_allocate<T>() / arena_deallocate<T>() (one
// shared pool per type, sized exactly to the type). Slabs themselves come
// from ::operator new, so MPS_PROF's memory accounting still attributes the
// bytes to the subsystem that allocated the first block of each slab.
//
// Recycling would normally blind AddressSanitizer to use-after-free on dead
// flows; under ASan the pool poisons every free-listed block and unpoisons
// on reuse, so a stale Connection* dereference still faults the sanitizer
// suite (tests/traffic arena tests rely on this).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <new>
#include <vector>

#if defined(__SANITIZE_ADDRESS__) && __has_include(<sanitizer/asan_interface.h>)
#include <sanitizer/asan_interface.h>
#define MPS_ARENA_POISON(ptr, size) ASAN_POISON_MEMORY_REGION(ptr, size)
#define MPS_ARENA_UNPOISON(ptr, size) ASAN_UNPOISON_MEMORY_REGION(ptr, size)
#else
#define MPS_ARENA_POISON(ptr, size) ((void)0)
#define MPS_ARENA_UNPOISON(ptr, size) ((void)0)
#endif

namespace mps {

class SlabPool {
 public:
  struct Stats {
    std::uint64_t allocated = 0;    // blocks handed out in total
    std::uint64_t reused = 0;       // of those, served from the free list
    std::uint64_t outstanding = 0;  // live blocks right now
    std::uint64_t slabs = 0;        // slabs carved so far
  };

  SlabPool(std::size_t block_size, std::size_t block_align,
           std::size_t blocks_per_slab = 64)
      : block_size_(round_up(block_size, block_align)),
        block_align_(block_align),
        blocks_per_slab_(blocks_per_slab) {
    assert(block_size_ > 0 && blocks_per_slab_ > 0);
  }

  ~SlabPool() {
    for (void* slab : slabs_) {
      MPS_ARENA_UNPOISON(slab, block_size_ * blocks_per_slab_);
      ::operator delete(slab, std::align_val_t(block_align_));
    }
  }

  SlabPool(const SlabPool&) = delete;
  SlabPool& operator=(const SlabPool&) = delete;

  void* allocate() {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.allocated;
    ++stats_.outstanding;
    if (!free_.empty()) {
      ++stats_.reused;
      void* p = free_.back();
      free_.pop_back();
      MPS_ARENA_UNPOISON(p, block_size_);
      return p;
    }
    return carve();
  }

  void deallocate(void* p) {
    std::lock_guard<std::mutex> lock(mu_);
    assert(stats_.outstanding > 0);
    --stats_.outstanding;
    MPS_ARENA_POISON(p, block_size_);
    free_.push_back(p);
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

  std::size_t block_size() const { return block_size_; }

 private:
  static std::size_t round_up(std::size_t n, std::size_t align) {
    return (n + align - 1) / align * align;
  }

  void* carve() {
    char* slab = static_cast<char*>(
        ::operator new(block_size_ * blocks_per_slab_, std::align_val_t(block_align_)));
    slabs_.push_back(slab);
    ++stats_.slabs;
    // Hand the first block out; the rest join the free list (poisoned).
    free_.reserve(free_.size() + blocks_per_slab_ - 1);
    for (std::size_t i = blocks_per_slab_; i-- > 1;) {
      void* block = slab + i * block_size_;
      MPS_ARENA_POISON(block, block_size_);
      free_.push_back(block);
    }
    return slab;
  }

  const std::size_t block_size_;
  const std::size_t block_align_;
  const std::size_t blocks_per_slab_;

  // One pool instance per type is shared by every world, and sweep workers
  // run worlds on separate threads — churn is rare relative to packet
  // events, so a plain mutex is cheap and keeps the TSan suite clean.
  mutable std::mutex mu_;
  std::vector<void*> slabs_;
  std::vector<void*> free_;
  Stats stats_;
};

// The process-wide pool for type T (function-local static: one instance
// across all translation units).
template <typename T>
SlabPool& slab_pool_for() {
  static SlabPool pool(sizeof(T), alignof(T));
  return pool;
}

// Class-level operator new/delete bodies. The size check routes any
// unexpected request (a hypothetical derived class; the pooled types are
// final so this is defensive) to the global heap.
template <typename T>
void* arena_allocate(std::size_t size) {
  if (size == sizeof(T)) return slab_pool_for<T>().allocate();
  return ::operator new(size);
}

template <typename T>
void arena_deallocate(void* p, std::size_t size) {
  if (p == nullptr) return;
  if (size == sizeof(T)) {
    slab_pool_for<T>().deallocate(p);
    return;
  }
  ::operator delete(p);
}

// Mixin: `class X : public ArenaAllocated<X>` takes every `new X` from X's
// slab pool. Deleting through a base pointer with a virtual destructor still
// reaches these (the deallocation function is looked up in the dynamic
// type), so a Scheduler held by unique_ptr<Scheduler> recycles too.
template <typename T>
class ArenaAllocated {
 public:
  static void* operator new(std::size_t size) { return arena_allocate<T>(size); }
  static void operator delete(void* p, std::size_t size) { arena_deallocate<T>(p, size); }
};

}  // namespace mps
