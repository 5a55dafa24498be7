#include "iot/codec.h"

#include <span>

#include "common/byte_codec.h"

namespace prc::iot {
namespace {

using FrameReader = ByteReader<CodecError>;

constexpr std::uint8_t kMagic = 'P';
constexpr std::size_t kHeaderSize = kMessageHeaderBytes;
// The CRC is the header's last field and covers everything else.
constexpr std::size_t kOffCrc = kHeaderSize - 4;

static_assert(kMessageHeaderBytes == 20, "codec layout assumes 20B header");
static_assert(kArrivalsHeaderBytes == 12 && kArrivalWireBytes == 4,
              "codec layout assumes u32 arrivals fields");

// SampleReport flags.
constexpr std::uint16_t kFlagArrivals = 0x0001;

/// The CRC over a frame's header (less its CRC field) and its payload.
std::uint32_t frame_crc(std::span<const std::uint8_t> frame) {
  return crc32(frame.data(), kOffCrc) ^
         crc32(frame.data() + kHeaderSize, frame.size() - kHeaderSize);
}

/// Starts a frame with `message`'s header, its CRC left zero for seal().
template <typename Message>
ByteWriter begin_frame(MessageType type, const Message& message,
                       std::uint32_t sequence, std::uint16_t flags = 0) {
  ByteWriter out;
  out.reserve(message.wire_size());
  out.u8(kMagic);
  out.u8(static_cast<std::uint8_t>(type));
  out.u16(flags);
  out.u32(static_cast<std::uint32_t>(message.node_id));
  out.u32(static_cast<std::uint32_t>(message.wire_size() - kHeaderSize));
  out.u32(sequence);
  out.u32(0);  // crc
  return out;
}

std::vector<std::uint8_t> seal(ByteWriter&& frame) {
  frame.patch_u32(kOffCrc, frame_crc(frame.bytes()));
  return std::move(frame).take();
}

struct Header {
  std::uint16_t flags = 0;
  int node_id = 0;
};

/// Checks `in`'s header against the frame it reads (magic, type, payload
/// length, CRC) and leaves `in` at the payload.
Header read_header(FrameReader& in, std::span<const std::uint8_t> frame,
                   MessageType expected) {
  if (frame.size() < kHeaderSize) throw CodecError("frame shorter than header");
  if (in.u8() != kMagic) throw CodecError("bad magic");
  if (static_cast<MessageType>(in.u8()) != expected) {
    throw CodecError("unexpected message type");
  }
  Header header;
  header.flags = in.u16();
  header.node_id = static_cast<int>(in.u32());
  const std::uint32_t payload_len = in.u32();
  in.u32();  // sequence
  const std::uint32_t stored_crc = in.u32();
  if (payload_len != in.remaining()) {
    throw CodecError("payload length mismatch");
  }
  if (stored_crc != frame_crc(frame)) throw CodecError("crc mismatch");
  return header;
}

}  // namespace

std::vector<std::uint8_t> encode(const SampleRequest& message,
                                 std::uint32_t sequence) {
  auto frame = begin_frame(MessageType::kSampleRequest, message, sequence);
  frame.f64(message.target_p);
  return seal(std::move(frame));
}

std::vector<std::uint8_t> encode(const SampleReport& message,
                                 std::uint32_t sequence) {
  auto out = begin_frame(MessageType::kSampleReport, message, sequence,
                         message.has_arrivals() ? kFlagArrivals : 0);
  out.u64(static_cast<std::uint64_t>(message.data_count));
  if (message.has_arrivals()) {
    out.u32(message.base_sequence);
    out.u32(message.base_samples);
    out.u32(static_cast<std::uint32_t>(message.arrival_gaps.size()));
    for (const std::uint32_t gap : message.arrival_gaps) out.u32(gap);
  }
  for (const auto& sample : message.new_samples) {
    out.f64(sample.value);
    out.u64(sample.rank);
  }
  return seal(std::move(out));
}

std::vector<std::uint8_t> encode(const Heartbeat& message,
                                 std::uint32_t sequence) {
  return seal(begin_frame(MessageType::kHeartbeat, message, sequence));
}

MessageType peek_type(const std::vector<std::uint8_t>& frame) {
  if (frame.size() < kHeaderSize) throw CodecError("frame shorter than header");
  FrameReader in(frame, "frame shorter than header");
  if (in.u8() != kMagic) throw CodecError("bad magic");
  const auto type = static_cast<MessageType>(in.u8());
  switch (type) {
    case MessageType::kSampleRequest:
    case MessageType::kSampleReport:
    case MessageType::kHeartbeat:
      return type;
  }
  throw CodecError("unknown message type");
}

SampleRequest decode_sample_request(const std::vector<std::uint8_t>& frame) {
  FrameReader in(frame, "sample request payload size");
  SampleRequest message;
  message.node_id = read_header(in, frame, MessageType::kSampleRequest).node_id;
  if (in.remaining() != sizeof(double)) {
    throw CodecError("sample request payload size");
  }
  message.target_p = in.f64();
  return message;
}

SampleReport decode_sample_report(const std::vector<std::uint8_t>& frame) {
  FrameReader in(frame, "sample report payload size");
  const Header header = read_header(in, frame, MessageType::kSampleReport);
  if ((header.flags & ~kFlagArrivals) != 0) {
    throw CodecError("unknown report flags");
  }
  SampleReport message;
  message.node_id = header.node_id;
  message.data_count = static_cast<std::size_t>(in.u64());
  if (header.flags & kFlagArrivals) {
    if (in.remaining() < kArrivalsHeaderBytes) {
      throw CodecError("arrivals section truncated");
    }
    message.base_sequence = in.u32();
    message.base_samples = in.u32();
    const std::uint32_t arrivals =
        in.count(kArrivalWireBytes, "arrivals section truncated");
    if (arrivals == 0) throw CodecError("arrivals section flagged but empty");
    message.arrival_gaps.reserve(arrivals);
    for (std::uint32_t i = 0; i < arrivals; ++i) {
      const std::uint32_t gap = in.u32();
      if (gap > message.base_samples) {
        throw CodecError("arrival gap exceeds base sample count");
      }
      if (!message.arrival_gaps.empty() && gap < message.arrival_gaps.back()) {
        throw CodecError("arrival gaps not non-decreasing");
      }
      message.arrival_gaps.push_back(gap);
    }
  }
  if (in.remaining() % kSampleWireBytes != 0) {
    throw CodecError("sample report payload size");
  }
  message.new_samples.resize(in.remaining() / kSampleWireBytes);
  for (auto& sample : message.new_samples) {
    sample.value = in.f64();
    sample.rank = in.u64();
  }
  return message;
}

Heartbeat decode_heartbeat(const std::vector<std::uint8_t>& frame) {
  FrameReader in(frame, "frame shorter than header");
  Heartbeat message;
  message.node_id = read_header(in, frame, MessageType::kHeartbeat).node_id;
  return message;
}

}  // namespace prc::iot
