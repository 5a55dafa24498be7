// Binary wire codec for the sampling protocol messages.
//
// The simulator's cost accounting is based on each message's wire_size();
// this codec makes that model honest: encode() produces exactly
// wire_size() bytes (fixed 20-byte header + fixed-width fields), and
// decode() round-trips every message.  The header carries a magic byte, a
// message type, the source node id and a payload length, which is what a
// minimal reliable datagram protocol for constrained devices needs.
//
// Layout (all integers little-endian):
//   header (20 B): magic 'P' (1) | type (1) | flags (2) | node_id (4) |
//                  payload_len (4) | sequence (4) | crc32 (4)
//   SampleRequest payload:  target_p (8 B double)
//   SampleReport payload:   data_count (8 B u64) | [arrivals] |
//                           {value f64, rank u64}*
//     arrivals (present iff flags bit 0 is set; a top-up or full resync
//     has no arrivals, flags 0 and no section): base_sequence (u32) |
//     base_samples (u32) | count (u32, >= 1) | gap (u32) * count, gaps
//     non-decreasing and each <= base_samples
//   Heartbeat payload:      empty
#pragma once

#include <array>
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

namespace detail {

/// Slice-by-8 tables for the reflected IEEE 802.3 polynomial 0xedb88320:
/// row 0 is the classic byte-at-a-time table, and row k advances a byte
/// through k further zero bytes, so eight rows fold eight input bytes into
/// the register in one step.
inline constexpr auto kCrc32Tables = [] {
  std::array<std::array<std::uint32_t, 256>, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t row = 1; row < 8; ++row) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[row - 1][i];
      tables[row][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}();

}  // namespace detail

/// CRC-32 (IEEE 802.3 polynomial) over a byte span: frame integrity in the
/// codec header and the WAL's record trailer.  Slice-by-8, eight bytes per
/// step with a byte-at-a-time tail; any alignment, any length, and usable
/// in constant expressions.
constexpr std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  const auto& table = detail::kCrc32Tables;
  std::uint32_t crc = 0xffffffffu;
  for (; size >= 8; data += 8, size -= 8) {
    // Two little-endian words; the compiler merges each into one load.
    const std::uint32_t low =
        crc ^ (std::uint32_t{data[0]} | std::uint32_t{data[1]} << 8 |
               std::uint32_t{data[2]} << 16 | std::uint32_t{data[3]} << 24);
    const std::uint32_t high =
        std::uint32_t{data[4]} | std::uint32_t{data[5]} << 8 |
        std::uint32_t{data[6]} << 16 | std::uint32_t{data[7]} << 24;
    crc = table[7][low & 0xffu] ^ table[6][(low >> 8) & 0xffu] ^
          table[5][(low >> 16) & 0xffu] ^ table[4][low >> 24] ^
          table[3][high & 0xffu] ^ table[2][(high >> 8) & 0xffu] ^
          table[1][(high >> 16) & 0xffu] ^ table[0][high >> 24];
  }
  for (; size > 0; ++data, --size) {
    crc = table[0][(crc ^ *data) & 0xffu] ^ (crc >> 8);
  }
  return crc ^ 0xffffffffu;
}

std::vector<std::uint8_t> encode(const SampleRequest& message,
                                 std::uint32_t sequence = 0);
std::vector<std::uint8_t> encode(const SampleReport& message,
                                 std::uint32_t sequence = 0);
std::vector<std::uint8_t> encode(const Heartbeat& message,
                                 std::uint32_t sequence = 0);

/// Type of an encoded frame (validates header + CRC first).
MessageType peek_type(const std::vector<std::uint8_t>& frame);

SampleRequest decode_sample_request(const std::vector<std::uint8_t>& frame);
SampleReport decode_sample_report(const std::vector<std::uint8_t>& frame);
Heartbeat decode_heartbeat(const std::vector<std::uint8_t>& frame);

}  // namespace prc::iot
