// The unit of transfer on a link.
//
// One packet type serves both directions: data segments flow on the forward
// (server -> client) link, cumulative ACKs on the reverse link. Fields not
// relevant to a direction are left zero. Keeping a single POD type avoids
// virtual dispatch on the per-packet hot path.
#pragma once

#include <cstdint>

#include "util/time.h"

namespace mps {

// TCP/IP header overhead carried by every segment: 40 bytes TCP/IPv4 + 12
// bytes timestamp option + 8 bytes MPTCP DSS option, rounded.
inline constexpr std::uint32_t kHeaderBytes = 60;
// Default maximum segment payload (1500 MTU - headers), as in the Linux
// MPTCP testbed the paper uses.
inline constexpr std::uint32_t kDefaultMss = 1428;
// Pure-ACK wire size (headers only).
inline constexpr std::uint32_t kAckBytes = 60;

struct Packet {
  // --- identity -----------------------------------------------------------
  std::uint32_t conn_id = 0;      // demultiplexes connections sharing a path
  std::uint32_t subflow_id = 0;   // which subflow of the connection
  std::uint64_t subflow_seq = 0;  // per-subflow segment sequence number
  std::uint64_t data_seq = 0;     // meta-level data sequence (first byte)
  std::uint32_t payload = 0;      // payload bytes (0 for pure ACK)

  // --- ACK direction ------------------------------------------------------
  bool is_ack = false;
  std::uint64_t ack_seq = 0;    // cumulative subflow-level: next expected seg
  std::uint64_t sack_high = 0;  // highest subflow seg received + 1 (FACK)
  std::uint64_t data_ack = 0;   // cumulative meta-level: next expected byte
  std::uint64_t rwnd = 0;       // advertised meta receive window (bytes)

  // SACK blocks: out-of-order segment ranges [lo, hi) held by the receiver.
  // Real TCP fits 3-4 blocks in the option space; we carry a few more since
  // each ACK refreshes the scoreboard wholesale here.
  static constexpr int kMaxSackBlocks = 8;
  std::uint8_t n_sack = 0;
  std::uint64_t sack_lo[kMaxSackBlocks] = {};
  std::uint64_t sack_hi[kMaxSackBlocks] = {};

  // --- timestamp option (RTT sampling) -------------------------------------
  TimePoint ts_val;             // data: send time; ACK: echoed send time
  bool ts_retransmit = false;   // echoed segment was a retransmission

  // --- bookkeeping ---------------------------------------------------------
  bool retransmit = false;
  std::uint64_t transmit_seq = 0;  // global order stamp for traces
  // Delivery event of a packet that overtook its link's propagation FIFO
  // and so holds an event of its own (EventId; 0 otherwise). Lets snapshot
  // forks find those packets and re-bind their arrivals (exp/snapshot.h).
  std::uint64_t prop_event = 0;

  std::uint32_t wire_size() const { return is_ack ? kAckBytes : payload + kHeaderBytes; }
};

}  // namespace mps
