// Binary wire codec for the sampling protocol messages.
//
// The simulator's cost accounting is based on each message's wire_size();
// this codec makes that model honest: encode() produces exactly
// wire_size() bytes (fixed 20-byte header + fixed-width fields), and
// decode() round-trips every message.  The header carries a magic byte, a
// message type, the source node id and a payload length, which is what a
// minimal reliable datagram protocol for constrained devices needs.
//
// Layout (all integers little-endian, written and read through
// common/byte_codec.h):
//   header (20 B): magic 'P' (1) | type (1) | flags (2) | node_id (4) |
//                  payload_len (4) | sequence (4) | crc (4)
//   crc = crc32(header bytes [0, 16)) ^ crc32(payload)
//   SampleRequest payload:  target_p (8 B double)
//   SampleReport payload:   data_count (8 B u64) | [arrivals] |
//                           {value f64, rank u64}*
//     arrivals (present iff flags bit 0 is set; a top-up or full resync
//     has no arrivals, flags 0 and no section): base_sequence (u32) |
//     base_samples (u32) | count (u32, >= 1) | gap (u32) * count, gaps
//     non-decreasing and each <= base_samples
//   Heartbeat payload:      empty
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "iot/messages.h"

namespace prc::iot {

enum class MessageType : std::uint8_t {
  kSampleRequest = 1,
  kSampleReport = 2,
  kHeartbeat = 3,
};

/// Raised by decode on malformed input (bad magic, truncated payload,
/// CRC mismatch, unknown type or flags, malformed arrivals section).
class CodecError : public std::runtime_error {
 public:
  explicit CodecError(const std::string& what) : std::runtime_error(what) {}
};

std::vector<std::uint8_t> encode(const SampleRequest& message,
                                 std::uint32_t sequence = 0);
std::vector<std::uint8_t> encode(const SampleReport& message,
                                 std::uint32_t sequence = 0);
std::vector<std::uint8_t> encode(const Heartbeat& message,
                                 std::uint32_t sequence = 0);

/// Type of an encoded frame, from its magic and type bytes alone; the
/// decoders check the length and CRC.
MessageType peek_type(const std::vector<std::uint8_t>& frame);

SampleRequest decode_sample_request(const std::vector<std::uint8_t>& frame);
SampleReport decode_sample_report(const std::vector<std::uint8_t>& frame);
Heartbeat decode_heartbeat(const std::vector<std::uint8_t>& frame);

}  // namespace prc::iot
