// Golden counters for the lossy link.
//
// Pins the absolute outputs of two degraded runs: every CommunicationStats
// field, every RoundReport and the station's cached sample count, after
// each step.  The link's per-attempt draw order (i.i.d. loss, then the
// Gilbert-Elliott burst step, then bit corruption, then duplication) decides
// every one of these numbers, so a refactor of the retransmission loop that
// reorders or drops a draw changes the trace.  The expected strings were
// recorded from the simulator and must not be regenerated to make a change
// pass: a diff here is a change in the simulated schedule.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "iot/faults.h"
#include "iot/network.h"
#include "iot/tree_network.h"

namespace prc::iot {
namespace {

std::vector<std::vector<double>> golden_node_data(std::size_t nodes,
                                                  std::size_t per_node) {
  Rng rng(2024);
  std::vector<std::vector<double>> data(nodes);
  for (auto& values : data) {
    for (std::size_t j = 0; j < per_node; ++j) {
      values.push_back(rng.uniform(0.0, 500.0));
    }
  }
  return data;
}

FaultConfig golden_faults() {
  FaultConfig faults;
  faults.crash_probability = 0.15;
  faults.rejoin_probability = 0.5;
  faults.good_to_bad = 0.1;
  faults.bad_to_good = 0.3;
  faults.loss_good = 0.02;
  faults.loss_bad = 0.7;
  faults.duplication_probability = 0.1;
  faults.seed = 5;
  return faults;
}

char outcome_letter(NodeOutcome outcome) {
  switch (outcome) {
    case NodeOutcome::kDelivered: return 'D';
    case NodeOutcome::kDropped: return 'X';
    case NodeOutcome::kOffline: return 'O';
    case NodeOutcome::kStale: return 'S';
  }
  return '?';
}

std::string format_stats(const CommunicationStats& s) {
  char line[512];
  std::snprintf(line, sizeof(line),
                "stats down=%zu/%zu up=%zu/%zu retrans=%zu corrupt=%zu "
                "samples=%zu piggy=%zu attempted=%zu delivered=%zu "
                "dropped=%zu dup=%zu backoff=%zu\n",
                s.downlink_messages, s.downlink_bytes, s.uplink_messages,
                s.uplink_bytes, s.retransmissions, s.corrupted_frames,
                s.samples_transferred, s.piggybacked_reports,
                s.frames_attempted, s.frames_delivered, s.dropped_frames,
                s.duplicated_frames, s.backoff_slots);
  return line;
}

std::string format_report(const RoundReport& r) {
  std::string outcomes;
  for (const auto outcome : r.outcomes) outcomes += outcome_letter(outcome);
  char line[512];
  std::snprintf(line, sizeof(line),
                "round p=%.17g new=%zu retries=%zu dropped=%zu severed=%zu "
                "coverage=%.17g min_p=%.17g outcomes=%s\n",
                r.target_p, r.new_samples, r.retries, r.dropped_frames,
                r.severed_reports, r.coverage, r.min_probability,
                outcomes.c_str());
  return line;
}

std::string format_cache(const BaseStation& station) {
  return "cached=" + std::to_string(station.cached_sample_count()) + "\n";
}

TEST(LinkGoldenTest, FlatByteAccurateLossyBoundedRun) {
  NetworkConfig config;
  config.seed = 31;
  config.frame_loss_probability = 0.1;
  config.byte_accurate = true;
  config.bit_corruption_probability = 0.2;
  config.max_attempts = 3;
  config.faults = golden_faults();
  FlatNetwork network(golden_node_data(12, 300), config);
  std::string trace;
  for (const double p : {0.1, 0.25}) {
    trace += format_report(network.ensure_sampling_probability(p));
    trace += format_stats(network.stats());
    trace += format_cache(network.base_station());
  }
  Rng arrivals(77);
  for (const std::size_t node : {1, 4, 9}) {
    std::vector<double> values;
    for (int j = 0; j < 40; ++j) values.push_back(arrivals.uniform(0, 500));
    network.append_data(node, values);
  }
  trace += "resynced=" + std::to_string(network.refresh_samples()) + "\n";
  trace += format_stats(network.stats());
  trace += format_cache(network.base_station());
  trace += format_report(network.ensure_sampling_probability(0.5));
  trace += format_stats(network.stats());
  trace += format_cache(network.base_station());
  EXPECT_EQ(trace, R"(round p=0.10000000000000001 new=224 retries=11 dropped=2 severed=0 coverage=1 min_p=0 outcomes=DDDDOXDXDODD
stats down=18/504 up=13/6556 retrans=11 corrupt=1 samples=224 piggy=0 attempted=20 delivered=18 dropped=2 dup=2 backoff=13
cached=224
round p=0.25 new=504 retries=17 dropped=2 severed=0 coverage=1 min_p=0 outcomes=DDDDDXDXDDDD
stats down=38/1064 up=36/23552 retrans=28 corrupt=5 samples=728 piggy=0 attempted=45 delivered=41 dropped=4 dup=5 backoff=32
cached=728
resynced=4
stats down=38/1064 up=42/27852 retrans=30 corrupt=5 samples=826 piggy=0 attempted=49 delivered=45 dropped=4 dup=5 backoff=35
cached=826
round p=0.5 new=735 retries=24 dropped=2 severed=0 coverage=0.66666666666666663 min_p=0.25 outcomes=XSDDDDDDXDSD
stats down=57/1596 up=75/53432 retrans=54 corrupt=8 samples=1561 piggy=0 attempted=78 delivered=72 dropped=6 dup=6 backoff=65
cached=1561
)");
}

TEST(LinkGoldenTest, TreeBoundedFaultyRun) {
  TreeConfig config;
  config.seed = 31;
  config.fanout = 2;
  config.frame_loss_probability = 0.1;
  config.max_attempts = 3;
  config.faults = golden_faults();
  TreeNetwork network(golden_node_data(12, 300), config);
  std::string trace;
  for (const double p : {0.1, 0.25, 0.5}) {
    trace += format_report(network.ensure_sampling_probability(p));
    trace += format_stats(network.stats());
    trace += format_cache(network.base_station());
  }
  for (const auto& level : network.level_stats()) {
    trace += "level links=" + std::to_string(level.links_crossed) +
             " bytes=" + std::to_string(level.bytes) + "\n";
  }
  EXPECT_EQ(trace, R"(round p=0.10000000000000001 new=165 retries=7 dropped=2 severed=2 coverage=1 min_p=0 outcomes=DDDDOXDXDOOO
stats down=15/420 up=13/6108 retrans=7 corrupt=0 samples=165 piggy=0 attempted=22 delivered=20 dropped=2 dup=1 backoff=7
cached=165
round p=0.25 new=297 retries=15 dropped=2 severed=2 coverage=0.8571428571428571 min_p=0 outcomes=DDDDOXSDDXOO
stats down=32/896 up=32/21952 retrans=22 corrupt=0 samples=462 piggy=0 attempted=44 delivered=40 dropped=4 dup=2 backoff=23
cached=462
round p=0.5 new=1008 retries=27 dropped=3 severed=0 coverage=0.81818181818181823 min_p=0 outcomes=DDDXDDDXDDDX
stats down=53/1484 up=74/101928 retrans=49 corrupt=0 samples=1470 piggy=0 attempted=81 delivered=74 dropped=7 dup=4 backoff=56
cached=1470
level links=0 bytes=0
level links=32 bytes=40768
level links=26 bytes=36764
level links=12 bytes=17996
)");
}

}  // namespace
}  // namespace prc::iot
