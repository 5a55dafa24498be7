// Base-station checkpointing: serialize/restore the sample cache so a
// broker can restart without a collection round.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iomanip>
#include <limits>
#include <sstream>

#include "iot/base_station.h"
#include "iot/codec.h"
#include "iot/network.h"
#include "query/range_query.h"

namespace prc::iot {
namespace {

std::vector<std::vector<double>> grid_node_data(std::size_t nodes,
                                                std::size_t per_node) {
  std::vector<std::vector<double>> data(nodes);
  double v = 0.0;
  for (std::size_t i = 0; i < nodes; ++i) {
    for (std::size_t j = 0; j < per_node; ++j) data[i].push_back(v += 1.0);
  }
  return data;
}

TEST(CheckpointTest, RoundTripPreservesEverything) {
  FlatNetwork network(grid_node_data(6, 400));
  network.ensure_sampling_probability(0.35);
  const auto& original = network.base_station();

  const auto bytes = original.serialize();
  const BaseStation restored = BaseStation::deserialize(bytes);

  EXPECT_EQ(restored.view()->node_count(), original.view()->node_count());
  EXPECT_EQ(restored.view()->total_data_count,
            original.view()->total_data_count);
  EXPECT_EQ(restored.cached_sample_count(), original.cached_sample_count());
  EXPECT_DOUBLE_EQ(restored.view()->coverage.target_p,
                   original.view()->coverage.target_p);
  // Every estimate coincides exactly.
  for (const auto& range : std::vector<query::RangeQuery>{
           {100.5, 900.5}, {0.0, 5000.0}, {1200.5, 1300.5}}) {
    EXPECT_DOUBLE_EQ(restored.view()->rank_counting_estimate(range),
                     original.view()->rank_counting_estimate(range));
    EXPECT_DOUBLE_EQ(restored.view()->basic_counting_estimate(range),
                     original.view()->basic_counting_estimate(range));
  }
}

TEST(CheckpointTest, FreshStationRoundTrips) {
  const BaseStation fresh(3);
  const auto restored = BaseStation::deserialize(fresh.serialize());
  EXPECT_EQ(restored.view()->node_count(), 3u);
  EXPECT_EQ(restored.view()->total_data_count, 0u);
  EXPECT_DOUBLE_EQ(restored.view()->coverage.target_p, 0.0);
}

// A 2-node station whose node 1 never reported, pinned byte for byte.
BaseStation golden_station() {
  BaseStation station(2);
  SampleReport report;
  report.node_id = 0;
  report.data_count = 10;
  report.new_samples = {{1.5, 2}, {4.25, 7}};
  station.replace(report);
  station.commit_round(0.5, {true, false});
  return station;
}

const char* const kGoldenCheckpoint =
    "505243530200000002000000000000000000e03f01000000000000e03f3c0000"
    "0050020000000000002800000000000000f99643990a00000000000000000000"
    "000000f83f020000000000000000000000000011400700000000000000000000"
    "0000000000001c0000005002000001000000080000000000000013ba06a10000"
    "000000000000";

TEST(CheckpointTest, GoldenBytes) {
  std::ostringstream hex;
  hex << std::hex << std::setfill('0');
  for (const unsigned byte : golden_station().serialize()) {
    hex << std::setw(2) << byte;
  }
  EXPECT_EQ(hex.str(), kGoldenCheckpoint);
}

TEST(CheckpointTest, RejectsGarbage) {
  EXPECT_THROW(BaseStation::deserialize({}), std::invalid_argument);
  EXPECT_THROW(BaseStation::deserialize({'X', 'Y', 'Z', 'W', 0, 0}),
               std::invalid_argument);
  // Valid prefix, truncated body.
  FlatNetwork network(grid_node_data(2, 50));
  network.ensure_sampling_probability(0.5);
  auto bytes = network.base_station().serialize();
  bytes.resize(bytes.size() / 2);
  EXPECT_ANY_THROW(BaseStation::deserialize(bytes));
}

TEST(CheckpointTest, RejectsVersionMismatch) {
  const BaseStation station(1);
  auto bytes = station.serialize();
  bytes[4] = 99;  // bump the version field
  EXPECT_THROW(BaseStation::deserialize(bytes), std::invalid_argument);
}

// Checkpoint layout: magic, version and node count (4 bytes each), the
// round target (8), then per node its reported flag (1), p_i (8), frame
// size (4) and frame.
constexpr std::size_t kNodeCountOffset = 8;
constexpr std::size_t kRoundTargetOffset = 12;
constexpr std::size_t kFirstNodeOffset = 20;

void overwrite_f64(std::vector<std::uint8_t>& bytes, std::size_t offset,
                   double value) {
  std::memcpy(bytes.data() + offset, &value, sizeof(value));
}

TEST(CheckpointTest, RejectsNanProbabilities) {
  FlatNetwork network(grid_node_data(2, 50));
  network.ensure_sampling_probability(0.5);
  const auto bytes = network.base_station().serialize();
  const double nan = std::numeric_limits<double>::quiet_NaN();

  auto nan_target = bytes;
  overwrite_f64(nan_target, kRoundTargetOffset, nan);
  EXPECT_THROW(BaseStation::deserialize(nan_target), std::invalid_argument);

  auto nan_node = bytes;
  overwrite_f64(nan_node, kFirstNodeOffset + 1, nan);  // node 0's p_i
  EXPECT_THROW(BaseStation::deserialize(nan_node), std::invalid_argument);
}

TEST(CheckpointTest, RejectsNodeCountBeyondItsBytes) {
  // The golden checkpoint's 20-byte preamble claiming 2^20 nodes and
  // holding none: refused before a station of that size is built.
  auto bytes = golden_station().serialize();
  bytes.resize(kFirstNodeOffset);
  const std::uint32_t claimed = 1u << 20;
  std::memcpy(bytes.data() + kNodeCountOffset, &claimed, sizeof(claimed));
  try {
    BaseStation::deserialize(bytes);
    FAIL() << "a 20-byte checkpoint of 2^20 nodes decoded";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("node count"), std::string::npos)
        << error.what();
  }
}

// Decodes `bytes`, or throws one of the checkpoint's own error types.
bool decodes(const std::vector<std::uint8_t>& bytes) {
  try {
    BaseStation::deserialize(bytes);
    return true;
  } catch (const std::invalid_argument&) {
  } catch (const CodecError&) {
  }
  return false;
}

TEST(CheckpointTest, EveryPrefixFailsAndEveryBitFlipDecodesOrFailsCleanly) {
  const auto golden = golden_station().serialize();
  ASSERT_TRUE(decodes(golden));
  for (std::size_t size = 0; size < golden.size(); ++size) {
    EXPECT_FALSE(decodes({golden.begin(),
                          golden.begin() + static_cast<std::ptrdiff_t>(size)}))
        << "prefix of " << size << " bytes decoded";
  }
  // The checkpoint's own fields carry no CRC (only the frames inside it
  // do), so a flip may decode: in a probability's low mantissa bits or the
  // reported flag.  Anything else must be refused with the format's errors.
  std::size_t decoded = 0;
  for (std::size_t bit = 0; bit < 8 * golden.size(); ++bit) {
    auto flipped = golden;
    flipped[bit / 8] =
        static_cast<std::uint8_t>(flipped[bit / 8] ^ (1u << (bit % 8)));
    if (decodes(flipped)) ++decoded;
  }
  EXPECT_GT(decoded, 0u);
}

TEST(CheckpointTest, RejectsFrameInAnotherNodesSlot) {
  FlatNetwork network(grid_node_data(2, 50));
  network.ensure_sampling_probability(0.5);
  const auto bytes = network.base_station().serialize();
  // Split the node blocks and write them back in swapped order, so slot 0
  // carries node 1's frame.
  std::uint32_t frame_size = 0;
  std::memcpy(&frame_size, bytes.data() + kFirstNodeOffset + 9,
              sizeof(frame_size));
  const auto second =
      bytes.begin() + static_cast<std::ptrdiff_t>(kFirstNodeOffset + 13 +
                                                  frame_size);
  std::vector<std::uint8_t> swapped = bytes;
  std::rotate(swapped.begin() + kFirstNodeOffset,
              swapped.begin() + (second - bytes.begin()), swapped.end());
  ASSERT_EQ(swapped.size(), bytes.size());
  EXPECT_THROW(BaseStation::deserialize(swapped), std::invalid_argument);
}

TEST(CheckpointTest, CorruptedFrameIsDetected) {
  FlatNetwork network(grid_node_data(2, 200));
  network.ensure_sampling_probability(0.5);
  auto bytes = network.base_station().serialize();
  bytes.back() ^= 0x40;  // flip a bit inside the last node's frame
  EXPECT_THROW(BaseStation::deserialize(bytes), CodecError);
}

TEST(CheckpointTest, RestoredStationAcceptsFurtherRounds) {
  FlatNetwork network(grid_node_data(2, 100));
  network.ensure_sampling_probability(0.2);
  BaseStation restored =
      BaseStation::deserialize(network.base_station().serialize());
  // The restored cache continues to accept protocol traffic: probability
  // stays monotone and replacement resyncs work.
  EXPECT_THROW(restored.commit_round(0.1), std::invalid_argument);
  restored.commit_round(0.5);
  EXPECT_DOUBLE_EQ(restored.view()->coverage.target_p, 0.5);
  SampleReport resync;
  resync.node_id = 0;
  resync.data_count = 120;
  resync.new_samples = {{5.0, 5}, {80.0, 80}};
  restored.replace(resync);
  EXPECT_EQ(restored.view()->total_data_count, 120u + 100u);
}

}  // namespace
}  // namespace prc::iot
