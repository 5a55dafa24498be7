#include "iot/codec.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/byte_codec.h"

namespace prc::iot {
namespace {

TEST(CodecTest, Crc32KnownVector) {
  // The canonical "123456789" check value for CRC-32/IEEE.
  const std::string check = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(check.data()),
                  check.size()),
            0xcbf43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
}

// The textbook bit-at-a-time CRC-32/IEEE (reflected polynomial 0xedb88320),
// the reference any table-driven implementation must agree with.
std::uint32_t bitwise_crc32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t crc = 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1u) ? 0xedb88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return crc ^ 0xffffffffu;
}

TEST(CodecTest, Crc32MatchesBitwiseReferenceAtEveryLengthAndAlignment) {
  // Lengths 0..300 cover every tail length of a multi-byte stepping loop
  // several times over; start offsets 0..7 put the first byte at every
  // alignment an 8-byte load can see.
  std::vector<std::uint8_t> buffer(8 + 300);
  std::uint32_t state = 0x9e3779b9u;
  for (auto& byte : buffer) {
    state = state * 1664525u + 1013904223u;
    byte = static_cast<std::uint8_t>(state >> 24);
  }
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 300; ++length) {
      const std::uint8_t* data = buffer.data() + offset;
      ASSERT_EQ(crc32(data, length), bitwise_crc32(data, length))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(CodecTest, SampleRequestRoundTrip) {
  const SampleRequest original{42, 0.37};
  const auto frame = encode(original, /*sequence=*/7);
  EXPECT_EQ(frame.size(), original.wire_size());
  EXPECT_EQ(peek_type(frame), MessageType::kSampleRequest);
  const auto decoded = decode_sample_request(frame);
  EXPECT_EQ(decoded.node_id, 42);
  EXPECT_DOUBLE_EQ(decoded.target_p, 0.37);
}

// Rewrites the payload length and CRC after a test edits a frame, so that
// only the check under test can reject it.
void reseal(std::vector<std::uint8_t>& frame) {
  ASSERT_GE(frame.size(), kMessageHeaderBytes);
  const auto payload =
      static_cast<std::uint32_t>(frame.size() - kMessageHeaderBytes);
  for (std::size_t i = 0; i < 4; ++i) {
    frame.at(8 + i) = static_cast<std::uint8_t>(payload >> (8 * i));
  }
  const std::uint32_t crc =
      crc32(frame.data(), 16) ^
      crc32(frame.data() + kMessageHeaderBytes, payload);
  for (std::size_t i = 0; i < 4; ++i) {
    frame.at(16 + i) = static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

SampleReport report_with_arrivals() {
  SampleReport report;
  report.node_id = 3;
  report.data_count = 9880;
  report.new_samples = {{1.5, 2}, {-7.25, 19}};
  report.base_sequence = 5;
  report.base_samples = 40;
  report.arrival_gaps = {0, 0, 7, 40};
  return report;
}

TEST(CodecTest, SampleReportRoundTrip) {
  SampleReport top_up;
  top_up.node_id = 3;
  top_up.data_count = 9876;
  top_up.new_samples = {{1.5, 2}, {-7.25, 19}, {3.14159, 4096}};
  for (const auto& original : {top_up, report_with_arrivals()}) {
    const auto frame = encode(original, 11);
    EXPECT_EQ(frame.size(), original.wire_size());
    EXPECT_EQ(peek_type(frame), MessageType::kSampleReport);
    const auto decoded = decode_sample_report(frame);
    EXPECT_EQ(decoded.node_id, 3);
    EXPECT_EQ(decoded.data_count, original.data_count);
    EXPECT_EQ(decoded.new_samples, original.new_samples);
    EXPECT_EQ(decoded.base_sequence, original.base_sequence);
    EXPECT_EQ(decoded.base_samples, original.base_samples);
    EXPECT_EQ(decoded.arrival_gaps, original.arrival_gaps);
  }
  // Without arrivals the flags stay clear: the frame is the one the format
  // produced before the arrivals section existed.
  const auto frame = encode(top_up);
  EXPECT_EQ(frame.at(2), 0);
  EXPECT_EQ(frame.at(3), 0);
  EXPECT_EQ(frame.size(), kMessageHeaderBytes + 8 + 3 * kSampleWireBytes);
}

// The frame format pinned byte for byte: a round trip passes any symmetric
// change to encode and decode, these hex strings do not.
std::string to_hex(const std::vector<std::uint8_t>& bytes) {
  std::ostringstream hex;
  hex << std::hex << std::setfill('0');
  for (const unsigned byte : bytes) hex << std::setw(2) << byte;
  return hex.str();
}

const char* const kGoldenRequest =
    "500100002a000000080000000700000062d79c60ae47e17a14aed73f";
const char* const kGoldenTopUp =
    "5002000003000000280000000b00000066987fb7942600000000000000000000"
    "0000f83f02000000000000000000000000001dc01300000000000000";
const char* const kGoldenArrivals =
    "5002010003000000440000000c00000043864060982600000000000005000000"
    "280000000400000000000000000000000700000028000000000000000000f83f"
    "02000000000000000000000000001dc01300000000000000";
const char* const kGoldenHeartbeat =
    "500300000c000000000000006300000024fc0619";

TEST(CodecTest, GoldenBytesOfEachMessage) {
  SampleReport top_up;
  top_up.node_id = 3;
  top_up.data_count = 9876;
  top_up.new_samples = {{1.5, 2}, {-7.25, 19}};
  EXPECT_EQ(to_hex(encode(SampleRequest{42, 0.37}, 7)), kGoldenRequest);
  EXPECT_EQ(to_hex(encode(top_up, 11)), kGoldenTopUp);
  EXPECT_EQ(to_hex(encode(report_with_arrivals(), 12)), kGoldenArrivals);
  EXPECT_EQ(to_hex(encode(Heartbeat{12}, 99)), kGoldenHeartbeat);
}

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> bytes;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(
        static_cast<std::uint8_t>(std::stoul(hex.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

TEST(CodecTest, EveryPrefixAndBitFlipOfAGoldenFrameIsRejected) {
  using Decoder = void (*)(const std::vector<std::uint8_t>&);
  const std::vector<std::pair<const char*, Decoder>> frames = {
      {kGoldenRequest,
       [](const std::vector<std::uint8_t>& f) { decode_sample_request(f); }},
      {kGoldenTopUp,
       [](const std::vector<std::uint8_t>& f) { decode_sample_report(f); }},
      {kGoldenArrivals,
       [](const std::vector<std::uint8_t>& f) { decode_sample_report(f); }},
      {kGoldenHeartbeat,
       [](const std::vector<std::uint8_t>& f) { decode_heartbeat(f); }},
  };
  for (const auto& [hex, decode] : frames) {
    const auto golden = from_hex(hex);
    ASSERT_NO_THROW(decode(golden)) << hex;
    for (std::size_t size = 0; size < golden.size(); ++size) {
      const std::vector<std::uint8_t> prefix(
          golden.begin(), golden.begin() + static_cast<std::ptrdiff_t>(size));
      EXPECT_THROW(decode(prefix), CodecError) << hex << " cut to " << size;
    }
    // The CRC covers every byte but its own field, and a flip there breaks
    // the match just the same.
    for (std::size_t bit = 0; bit < 8 * golden.size(); ++bit) {
      auto flipped = golden;
      flipped.at(bit / 8) = static_cast<std::uint8_t>(flipped.at(bit / 8) ^
                                                      (1u << (bit % 8)));
      EXPECT_THROW(decode(flipped), CodecError) << hex << " bit " << bit;
    }
  }
}

TEST(CodecTest, EmptyReportRoundTrip) {
  SampleReport original;
  original.node_id = 0;
  original.data_count = 0;
  const auto frame = encode(original);
  EXPECT_EQ(frame.size(), original.wire_size());
  const auto decoded = decode_sample_report(frame);
  EXPECT_TRUE(decoded.new_samples.empty());
}

TEST(CodecTest, HeartbeatRoundTrip) {
  const Heartbeat original{12};
  const auto frame = encode(original, 99);
  EXPECT_EQ(frame.size(), original.wire_size());
  EXPECT_EQ(decode_heartbeat(frame).node_id, 12);
}

TEST(CodecTest, EncodedSizeMatchesWireSizeModel) {
  // The whole communication-cost model rests on wire_size(); the codec must
  // agree byte-for-byte for every payload size, with and without arrivals.
  for (std::size_t samples : {0u, 1u, 16u, 64u, 257u}) {
    for (std::size_t arrivals : {0u, 1u, 300u}) {
      SampleReport report;
      report.node_id = 1;
      report.data_count = samples * 10;
      for (std::size_t i = 0; i < samples; ++i) {
        report.new_samples.push_back({static_cast<double>(i), i + 1});
      }
      report.base_samples = 9;
      report.arrival_gaps.assign(arrivals, 4);
      EXPECT_EQ(encode(report).size(), report.wire_size())
          << samples << " samples, " << arrivals << " arrivals";
    }
  }
}

TEST(CodecTest, RejectsCorruptedFrames) {
  const auto frame = encode(SampleRequest{1, 0.5});
  // Truncation.
  std::vector<std::uint8_t> truncated(frame.begin(), frame.begin() + 10);
  EXPECT_THROW(decode_sample_request(truncated), CodecError);
  // Bad magic.
  auto bad_magic = frame;
  bad_magic[0] = 'X';
  EXPECT_THROW(decode_sample_request(bad_magic), CodecError);
  EXPECT_THROW(peek_type(bad_magic), CodecError);
  // Flipped payload bit -> CRC mismatch.
  auto flipped = frame;
  flipped.back() ^= 0x01;
  EXPECT_THROW(decode_sample_request(flipped), CodecError);
  // Flipped header bit -> CRC mismatch.
  auto flipped_header = frame;
  flipped_header[5] ^= 0x80;
  EXPECT_THROW(decode_sample_request(flipped_header), CodecError);
}

TEST(CodecTest, RejectsTypeConfusion) {
  const auto request = encode(SampleRequest{1, 0.5});
  EXPECT_THROW(decode_sample_report(request), CodecError);
  EXPECT_THROW(decode_heartbeat(request), CodecError);
  const auto beat = encode(Heartbeat{2});
  EXPECT_THROW(decode_sample_request(beat), CodecError);
}

TEST(CodecTest, RejectsUnknownType) {
  auto frame = encode(Heartbeat{1});
  frame[1] = 77;  // not a MessageType; lint:allow index (fresh frame)
  EXPECT_THROW(peek_type(frame), CodecError);
}

TEST(CodecTest, RejectsRaggedReportPayload) {
  auto frame = encode(SampleReport{1, 5, {{1.0, 1}}});
  // Grow payload by one byte and fix the declared length so only the
  // 16-byte alignment check can catch it.
  frame.push_back(0);
  frame[8] =  // lint:allow index (fresh frame >= header size)
      static_cast<std::uint8_t>(frame.size() - 20);
  EXPECT_THROW(decode_sample_report(frame), CodecError);
}

TEST(CodecTest, RejectsMalformedArrivalsSection) {
  const auto expect_rejected = [](std::vector<std::uint8_t> frame,
                                  const std::string& reason) {
    reseal(frame);
    try {
      decode_sample_report(frame);
      ADD_FAILURE() << "accepted: " << reason;
    } catch (const CodecError& error) {
      EXPECT_EQ(std::string(error.what()), reason);
    }
  };
  // The arrivals section starts after the header and data_count; gap k sits
  // at kGaps + 4k.
  constexpr std::size_t kSection = kMessageHeaderBytes + 8;
  constexpr std::size_t kGaps = kSection + kArrivalsHeaderBytes;

  auto report = report_with_arrivals();
  report.arrival_gaps = {3, 41};
  expect_rejected(encode(report), "arrival gap exceeds base sample count");
  report.arrival_gaps = {3, 2};
  expect_rejected(encode(report), "arrival gaps not non-decreasing");

  const auto good = encode(report_with_arrivals());
  // Truncated: the section header, or the gaps it announces, run past the
  // end of the payload.
  auto cut_header = std::vector<std::uint8_t>(good.begin(),
                                              good.begin() + kSection + 6);
  expect_rejected(cut_header, "arrivals section truncated");
  auto cut_gaps = std::vector<std::uint8_t>(good.begin(),
                                            good.begin() + kGaps + 8);
  expect_rejected(cut_gaps, "arrivals section truncated");
  auto huge_count = good;
  huge_count.at(kSection + 11) = 0xff;  // count's top byte: ~4e9 gaps
  expect_rejected(huge_count, "arrivals section truncated");

  // Flagged but empty: a zero count behind a set flag.
  SampleReport top_up;
  top_up.node_id = 3;
  top_up.new_samples = {{1.5, 2}};
  auto empty = encode(top_up);
  empty.at(2) = 0x01;
  empty.insert(empty.begin() + kSection, kArrivalsHeaderBytes, 0);
  expect_rejected(empty, "arrivals section flagged but empty");

  // Unknown flag bits.
  auto unknown = encode(top_up);
  unknown.at(3) = 0x80;
  expect_rejected(unknown, "unknown report flags");

  // Sanity: the intact frame decodes after a reseal.
  auto intact = good;
  reseal(intact);
  EXPECT_EQ(decode_sample_report(intact).arrival_gaps,
            report_with_arrivals().arrival_gaps);
}

}  // namespace
}  // namespace prc::iot
