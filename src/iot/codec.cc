#include "iot/codec.h"

#include <cstring>

#include "common/check.h"

namespace prc::iot {
namespace {

constexpr std::uint8_t kMagic = 'P';
constexpr std::size_t kHeaderSize = kMessageHeaderBytes;
// Header field offsets.
constexpr std::size_t kOffMagic = 0;
constexpr std::size_t kOffType = 1;
constexpr std::size_t kOffFlags = 2;
constexpr std::size_t kOffNodeId = 4;
constexpr std::size_t kOffPayloadLen = 8;
constexpr std::size_t kOffSequence = 12;
constexpr std::size_t kOffCrc = 16;

static_assert(kMessageHeaderBytes == 20, "codec layout assumes 20B header");
static_assert(kArrivalsHeaderBytes == 12 && kArrivalWireBytes == 4,
              "codec layout assumes u32 arrivals fields");

// SampleReport flags.
constexpr std::uint16_t kFlagArrivals = 0x0001;

// The CRC-32/IEEE check value, proved at compile time.
constexpr std::uint8_t kCrcCheckInput[] = {'1', '2', '3', '4', '5',
                                           '6', '7', '8', '9'};
static_assert(crc32(kCrcCheckInput, sizeof(kCrcCheckInput)) == 0xcbf43926u);

void put_u32(std::vector<std::uint8_t>& out, std::size_t offset,
             std::uint32_t value) {
  PRC_DCHECK(offset + 4 <= out.size())
      << "put_u32 out of bounds: offset " << offset << " in frame of "
      << out.size();
  for (int i = 0; i < 4; ++i) {
    out[offset + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(value >> (8 * i));
  }
}

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

void put_f64(std::vector<std::uint8_t>& out, double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  put_u64(out, bits);
}

std::uint32_t get_u32(const std::vector<std::uint8_t>& in,
                      std::size_t offset) {
  PRC_DCHECK(offset + 4 <= in.size())
      << "get_u32 out of bounds: offset " << offset << " in frame of "
      << in.size();
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    value |= static_cast<std::uint32_t>(in[offset + static_cast<std::size_t>(i)])
             << (8 * i);
  }
  return value;
}

std::uint16_t get_u16(const std::vector<std::uint8_t>& in,
                      std::size_t offset) {
  PRC_DCHECK(offset + 2 <= in.size())
      << "get_u16 out of bounds: offset " << offset << " in frame of "
      << in.size();
  return static_cast<std::uint16_t>(in[offset] | (in[offset + 1] << 8));
}

std::uint64_t get_u64(const std::vector<std::uint8_t>& in,
                      std::size_t offset) {
  PRC_DCHECK(offset + 8 <= in.size())
      << "get_u64 out of bounds: offset " << offset << " in frame of "
      << in.size();
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    value |= static_cast<std::uint64_t>(in[offset + static_cast<std::size_t>(i)])
             << (8 * i);
  }
  return value;
}

double get_f64(const std::vector<std::uint8_t>& in, std::size_t offset) {
  const std::uint64_t bits = get_u64(in, offset);
  double value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

/// Builds header + reserves the payload; the CRC is stamped by seal().
std::vector<std::uint8_t> make_frame(MessageType type, int node_id,
                                     std::uint32_t payload_len,
                                     std::uint32_t sequence,
                                     std::uint16_t flags = 0) {
  std::vector<std::uint8_t> frame(kHeaderSize, 0);
  frame[kOffMagic] = kMagic;
  frame[kOffType] = static_cast<std::uint8_t>(type);
  frame[kOffFlags] = static_cast<std::uint8_t>(flags);
  frame[kOffFlags + 1] = static_cast<std::uint8_t>(flags >> 8);
  put_u32(frame, kOffNodeId, static_cast<std::uint32_t>(node_id));
  put_u32(frame, kOffPayloadLen, payload_len);
  put_u32(frame, kOffSequence, sequence);
  frame.reserve(kHeaderSize + payload_len);
  return frame;
}

/// Computes the CRC over everything except the CRC field itself.
void seal(std::vector<std::uint8_t>& frame) {
  const std::uint32_t head_crc = crc32(frame.data(), kOffCrc);
  const std::uint32_t body_crc =
      frame.size() > kHeaderSize
          ? crc32(frame.data() + kHeaderSize, frame.size() - kHeaderSize)
          : 0;
  put_u32(frame, kOffCrc, head_crc ^ body_crc);
}

void validate(const std::vector<std::uint8_t>& frame, MessageType expected) {
  if (frame.size() < kHeaderSize) throw CodecError("frame shorter than header");
  if (frame[kOffMagic] != kMagic) throw CodecError("bad magic");
  const auto type = static_cast<MessageType>(frame[kOffType]);
  if (type != expected) throw CodecError("unexpected message type");
  const std::uint32_t payload_len = get_u32(frame, kOffPayloadLen);
  if (frame.size() != kHeaderSize + payload_len) {
    throw CodecError("payload length mismatch");
  }
  const std::uint32_t stored = get_u32(frame, kOffCrc);
  const std::uint32_t head_crc = crc32(frame.data(), kOffCrc);
  const std::uint32_t body_crc =
      frame.size() > kHeaderSize
          ? crc32(frame.data() + kHeaderSize, frame.size() - kHeaderSize)
          : 0;
  if (stored != (head_crc ^ body_crc)) throw CodecError("crc mismatch");
}

}  // namespace

std::vector<std::uint8_t> encode(const SampleRequest& message,
                                 std::uint32_t sequence) {
  auto frame = make_frame(MessageType::kSampleRequest, message.node_id,
                          sizeof(double), sequence);
  put_f64(frame, message.target_p);
  seal(frame);
  return frame;
}

std::vector<std::uint8_t> encode(const SampleReport& message,
                                 std::uint32_t sequence) {
  const auto payload_len =
      static_cast<std::uint32_t>(message.wire_size() - kHeaderSize);
  auto frame = make_frame(MessageType::kSampleReport, message.node_id,
                          payload_len, sequence,
                          message.has_arrivals() ? kFlagArrivals : 0);
  put_u64(frame, static_cast<std::uint64_t>(message.data_count));
  if (message.has_arrivals()) {
    append_u32(frame, message.base_sequence);
    append_u32(frame, message.base_samples);
    append_u32(frame, static_cast<std::uint32_t>(message.arrival_gaps.size()));
    for (const std::uint32_t gap : message.arrival_gaps) append_u32(frame, gap);
  }
  for (const auto& sample : message.new_samples) {
    put_f64(frame, sample.value);
    put_u64(frame, sample.rank);
  }
  seal(frame);
  return frame;
}

std::vector<std::uint8_t> encode(const Heartbeat& message,
                                 std::uint32_t sequence) {
  auto frame = make_frame(MessageType::kHeartbeat, message.node_id, 0,
                          sequence);
  seal(frame);
  return frame;
}

MessageType peek_type(const std::vector<std::uint8_t>& frame) {
  if (frame.size() < kHeaderSize) throw CodecError("frame shorter than header");
  if (frame[kOffMagic] != kMagic) throw CodecError("bad magic");
  const auto type = static_cast<MessageType>(frame[kOffType]);
  switch (type) {
    case MessageType::kSampleRequest:
    case MessageType::kSampleReport:
    case MessageType::kHeartbeat:
      return type;
  }
  throw CodecError("unknown message type");
}

SampleRequest decode_sample_request(const std::vector<std::uint8_t>& frame) {
  validate(frame, MessageType::kSampleRequest);
  if (frame.size() != kHeaderSize + sizeof(double)) {
    throw CodecError("sample request payload size");
  }
  SampleRequest message;
  message.node_id = static_cast<int>(get_u32(frame, kOffNodeId));
  message.target_p = get_f64(frame, kHeaderSize);
  return message;
}

SampleReport decode_sample_report(const std::vector<std::uint8_t>& frame) {
  validate(frame, MessageType::kSampleReport);
  const std::uint16_t flags = get_u16(frame, kOffFlags);
  if ((flags & ~kFlagArrivals) != 0) throw CodecError("unknown report flags");
  if (frame.size() < kHeaderSize + sizeof(std::uint64_t)) {
    throw CodecError("sample report payload size");
  }
  SampleReport message;
  message.node_id = static_cast<int>(get_u32(frame, kOffNodeId));
  message.data_count =
      static_cast<std::size_t>(get_u64(frame, kHeaderSize));
  std::size_t offset = kHeaderSize + sizeof(std::uint64_t);
  if (flags & kFlagArrivals) {
    if (frame.size() - offset < kArrivalsHeaderBytes) {
      throw CodecError("arrivals section truncated");
    }
    message.base_sequence = get_u32(frame, offset);
    message.base_samples = get_u32(frame, offset + 4);
    const std::uint32_t arrivals = get_u32(frame, offset + 8);
    offset += kArrivalsHeaderBytes;
    if (arrivals == 0) throw CodecError("arrivals section flagged but empty");
    // Compare as counts before multiplying: a hostile count must not wrap.
    if ((frame.size() - offset) / kArrivalWireBytes < arrivals) {
      throw CodecError("arrivals section truncated");
    }
    message.arrival_gaps.reserve(arrivals);
    for (std::uint32_t i = 0; i < arrivals; ++i) {
      const std::uint32_t gap = get_u32(frame, offset);
      offset += kArrivalWireBytes;
      if (gap > message.base_samples) {
        throw CodecError("arrival gap exceeds base sample count");
      }
      if (!message.arrival_gaps.empty() && gap < message.arrival_gaps.back()) {
        throw CodecError("arrival gaps not non-decreasing");
      }
      message.arrival_gaps.push_back(gap);
    }
  }
  if ((frame.size() - offset) % kSampleWireBytes != 0) {
    throw CodecError("sample report payload size");
  }
  const std::size_t count = (frame.size() - offset) / kSampleWireBytes;
  message.new_samples.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    sampling::RankedValue sample;
    sample.value = get_f64(frame, offset);
    sample.rank = get_u64(frame, offset + sizeof(double));
    message.new_samples.push_back(sample);
    offset += kSampleWireBytes;
  }
  return message;
}

Heartbeat decode_heartbeat(const std::vector<std::uint8_t>& frame) {
  validate(frame, MessageType::kHeartbeat);
  Heartbeat message;
  message.node_id = static_cast<int>(get_u32(frame, kOffNodeId));
  return message;
}

}  // namespace prc::iot
