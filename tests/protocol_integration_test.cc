// Protocol-level integration: run a sampling round where every message is
// actually encoded with the wire codec and decoded on the other side,
// verifying the simulator's in-memory protocol and the byte format agree.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "iot/base_station.h"
#include "iot/codec.h"
#include "iot/node.h"
#include "query/range_query.h"

namespace prc::iot {
namespace {

TEST(ProtocolIntegrationTest, FullRoundOverEncodedFrames) {
  const std::size_t k = 4;
  const double p = 0.3;

  std::vector<SensorNode> nodes;
  Rng master(99);
  std::size_t total = 0;
  for (std::size_t i = 0; i < k; ++i) {
    std::vector<double> values;
    for (int j = 0; j < 500; ++j) {
      values.push_back(static_cast<double>(j) + static_cast<double>(i) * 0.1);
    }
    total += values.size();
    nodes.emplace_back(static_cast<int>(i), std::move(values),
                       master.split());
  }
  BaseStation station(k);

  std::size_t bytes_on_wire = 0;
  std::uint32_t sequence = 0;
  for (auto& node : nodes) {
    // Downlink: encode the request, ship bytes, decode at the node.
    const SampleRequest request{node.id(), p};
    const auto request_frame = encode(request, sequence++);
    bytes_on_wire += request_frame.size();
    ASSERT_EQ(peek_type(request_frame), MessageType::kSampleRequest);
    const auto decoded_request = decode_sample_request(request_frame);
    ASSERT_EQ(decoded_request.node_id, node.id());
    ASSERT_DOUBLE_EQ(decoded_request.target_p, p);

    // Uplink: the node's report crosses the wire the same way.
    const SampleReport report = node.handle(decoded_request);
    const auto report_frame = encode(report, sequence++);
    bytes_on_wire += report_frame.size();
    ASSERT_EQ(peek_type(report_frame), MessageType::kSampleReport);
    const auto decoded_report = decode_sample_report(report_frame);
    ASSERT_EQ(decoded_report.new_samples.size(), report.new_samples.size());
    station.ingest(decoded_report);
  }
  station.commit_round(p);

  // The station reconstructed the full protocol state from bytes alone.
  const auto view = station.view();
  EXPECT_EQ(view->total_data_count, total);
  EXPECT_GT(view->cached_samples, 0u);
  EXPECT_GT(bytes_on_wire, 0u);

  // Full-domain estimate is exact (case 4 of the estimator per node).
  EXPECT_DOUBLE_EQ(view->rank_counting_estimate({-1e9, 1e9}),
                   static_cast<double>(total));
  // Interior estimate lands near truth.
  const double estimate = view->rank_counting_estimate({100.5, 400.5});
  EXPECT_NEAR(estimate, 4.0 * 300.0,
              10.0 * std::sqrt(8.0 * static_cast<double>(k)) / p);
}

TEST(ProtocolIntegrationTest, HeartbeatPiggybackSizeModel) {
  // A report small enough to piggyback costs (in the simulator's model)
  // sample payload + n_i only; verify the full encoded frame differs by
  // exactly the header the piggyback saves.
  SampleReport report;
  report.node_id = 1;
  report.data_count = 100;
  for (std::uint64_t i = 1; i <= kHeartbeatPiggybackSamples; ++i) {
    report.new_samples.push_back({static_cast<double>(i), i});
  }
  const auto frame = encode(report);
  const std::size_t piggyback_cost =
      report.new_samples.size() * kSampleWireBytes + sizeof(std::uint64_t);
  EXPECT_EQ(frame.size(), piggyback_cost + kMessageHeaderBytes);
}

}  // namespace
}  // namespace prc::iot
