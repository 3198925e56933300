// Free-list pool of Packet buffers for a link's packets.
//
// A link copies each admitted packet once into a slot from this pool and
// passes the slot pointer through its queue, serializer and propagation
// FIFO, so a hop moves 8-byte pointers instead of ~230-byte Packets and a
// delivery closure captures only {link, Packet*} (always inline). Slots
// return to the free list as deliveries fire. Chunks are never freed, so a
// link's pool high-water tracks its maximum packets simultaneously queued,
// in service or propagating, not its traffic volume.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "net/packet.h"

namespace mps {

class PacketPool {
 public:
  Packet* acquire() {
    if (free_.empty()) grow();
    Packet* p = free_.back();
    free_.pop_back();
    return p;
  }

  void release(Packet* p) {
    p->prop_event = 0;  // free slots must not look like overtakers to snapshot scans
    free_.push_back(p);
  }

  // Total slots ever created (diagnostics; equals the live-packet
  // high-water rounded up to a chunk).
  std::size_t capacity() const { return chunks_.size() * kChunkPackets; }

  // Visits every slot, live and free; snapshot forks find a link's
  // overtaking packets by prop_event != 0 (the pool keeps no per-slot
  // liveness bit of its own).
  template <typename Fn>
  void for_each_slot(Fn&& fn) const {
    for (const auto& chunk : chunks_) {
      for (std::size_t i = 0; i < kChunkPackets; ++i) fn(chunk[i]);
    }
  }

 private:
  static constexpr std::size_t kChunkPackets = 32;

  void grow() {
    chunks_.push_back(std::make_unique<Packet[]>(kChunkPackets));
    Packet* base = chunks_.back().get();
    for (std::size_t i = 0; i < kChunkPackets; ++i) free_.push_back(base + i);
  }

  std::vector<std::unique_ptr<Packet[]>> chunks_;
  std::vector<Packet*> free_;
};

}  // namespace mps
