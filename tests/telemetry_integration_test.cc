// End-to-end telemetry: one broker session (collection -> DP -> pricing ->
// market, the prc_query `session` flow) must populate the process-wide
// registry with non-zero metrics from all four layers and a trace with
// >= 3 nested span levels, and the snapshot must survive a JSON round-trip
// and pass the telemetry schema gate.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics_metadata.h"
#include "common/prometheus.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "dp/private_counting.h"
#include "iot/network.h"
#include "market/broker.h"
#include "pricing/pricing.h"
#include "pricing/variance_model.h"
#include "query/range_query.h"

namespace prc {
namespace {

std::vector<std::vector<double>> synthetic_node_data(std::size_t nodes,
                                                     std::size_t per_node,
                                                     std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<double>> data(nodes);
  for (auto& node : data) {
    node.reserve(per_node);
    for (std::size_t i = 0; i < per_node; ++i) {
      node.push_back(rng.uniform() * 200.0);
    }
  }
  return data;
}

std::uint64_t counter_value(const telemetry::TelemetrySnapshot& snap,
                            const std::string& name) {
  for (const auto& [counter_name, value] : snap.counters) {
    if (counter_name == name) return value;
  }
  return 0;
}

TEST(TelemetryIntegrationTest, SessionPopulatesAllFourLayers) {
  telemetry::Telemetry::registry().reset();
  trace::Tracer::instance().set_enabled(true);
  trace::Tracer::instance().clear();

  constexpr std::size_t kNodes = 8;
  constexpr std::size_t kPerNode = 250;
  iot::FlatNetwork network(synthetic_node_data(kNodes, kPerNode, 11), {});
  dp::PrivateRangeCounter counter(network, {}, 13);
  const pricing::VarianceModel model(kNodes * kPerNode, kNodes);
  auto pricing_fn = std::make_unique<pricing::InverseVariancePricing>(
      model, query::AccuracySpec{0.1, 0.5}, 100.0, 1.0);
  market::BrokerConfig config;
  config.per_consumer_epsilon_cap = 10.0;
  market::DataBroker broker(counter, std::move(pricing_fn), config);

  const query::RangeQuery range{50.0, 150.0};
  const query::AccuracySpec spec{0.05, 0.8};
  (void)broker.quote(spec);
  for (int i = 0; i < 2; ++i) {
    (void)broker.sell("consumer-" + std::to_string(i), range, spec);
  }

  const auto snap = telemetry::Telemetry::registry().snapshot();

  // Acceptance floor: >= 20 distinct metrics spanning all four layers.
  EXPECT_GE(snap.metric_count(), 20u);
  EXPECT_TRUE(snap.has_prefix("iot."));
  EXPECT_TRUE(snap.has_prefix("dp."));
  EXPECT_TRUE(snap.has_prefix("pricing."));
  EXPECT_TRUE(snap.has_prefix("market."));

  // The load-bearing per-layer counters are non-zero.
  EXPECT_GT(counter_value(snap, "iot.rounds"), 0u);
  EXPECT_GT(counter_value(snap, "iot.frames_delivered"), 0u);
  EXPECT_GT(counter_value(snap, "dp.answers"), 0u);
  EXPECT_GT(counter_value(snap, "dp.optimize_calls"), 0u);
  EXPECT_GT(counter_value(snap, "dp.laplace_draws"), 0u);
  EXPECT_GT(counter_value(snap, "pricing.quotes"), 0u);
  EXPECT_GT(counter_value(snap, "pricing.menu_validations"), 0u);
  EXPECT_EQ(counter_value(snap, "market.sales"), 2u);
  EXPECT_EQ(counter_value(snap, "market.ledger_transactions"), 2u);

  // Released-budget accounting: the gauge tracks the ledger exactly.
  double epsilon_gauge = 0.0;
  for (const auto& [name, value] : snap.gauges) {
    if (name == "market.epsilon_spent_total") epsilon_gauge = value;
  }
  EXPECT_DOUBLE_EQ(epsilon_gauge, broker.ledger().total_epsilon());

  // Durations were recorded for each layer's span-of-work.
  const auto hist_count = [&](const std::string& name) -> std::uint64_t {
    for (const auto& hist : snap.histograms) {
      if (hist.name == name) return hist.count;
    }
    return 0;
  };
  EXPECT_GT(hist_count("iot.round_duration_us"), 0u);
  EXPECT_GT(hist_count("dp.answer_duration_us"), 0u);
  EXPECT_GT(hist_count("market.sell_duration_us"), 0u);
  EXPECT_GT(hist_count("market.sale_price"), 0u);

  // The snapshot survives a JSON round-trip intact.
  const auto parsed = telemetry::TelemetrySnapshot::from_json(snap.to_json());
  EXPECT_EQ(parsed.metric_count(), snap.metric_count());
  EXPECT_EQ(parsed.counters, snap.counters);

  // The `prc_query check-telemetry` schema gate accepts the live snapshot
  // and its exposition: every metric is registered with the right kind.
  using Problems = std::vector<std::string>;
  EXPECT_EQ(telemetry::snapshot_schema_problems(snap), Problems{});
  EXPECT_EQ(telemetry::exposition_schema_problems(
                telemetry::prometheus::render(snap)),
            Problems{});

  // The trace shows the full nesting: market.sell -> dp.answer ->
  // dp.ensure_feasible_plan -> iot.round, i.e. >= 3 nested levels.
  const auto spans = trace::Tracer::instance().snapshot();
  std::uint32_t max_depth = 0;
  for (const auto& span : spans) max_depth = std::max(max_depth, span.depth);
  EXPECT_GE(max_depth, 3u);
  const auto has_span = [&](const std::string& name) {
    return std::any_of(spans.begin(), spans.end(),
                       [&](const trace::SpanRecord& span) {
                         return span.name == name;
                       });
  };
  EXPECT_TRUE(has_span("market.sell"));
  EXPECT_TRUE(has_span("dp.answer"));
  EXPECT_TRUE(has_span("iot.round"));
}

TEST(TelemetryIntegrationTest, ResyncOutcomesAreCounted) {
  telemetry::Telemetry::registry().reset();
  // A lossy link with one attempt per frame: some reports are lost and
  // force the full-resync fallback, others arrive as deltas.
  iot::NetworkConfig config;
  config.frame_loss_probability = 0.3;
  config.max_attempts = 1;
  config.seed = 5;
  iot::FlatNetwork network(synthetic_node_data(4, 200, 31), config);
  network.ensure_sampling_probability(0.2);
  Rng arrivals(7);
  for (int batch = 0; batch < 20; ++batch) {
    const auto node = static_cast<std::size_t>(batch % 4);
    network.append_data(node, {arrivals.uniform() * 200.0});
    network.refresh_samples();
  }

  const auto snap = telemetry::Telemetry::registry().snapshot();
  EXPECT_GT(counter_value(snap, "iot.station.deltas_applied"), 0u);
  EXPECT_GT(counter_value(snap, "iot.resync_fallbacks"), 0u);
  EXPECT_GT(counter_value(snap, "iot.station.cache_replacements"), 0u);
  // Resync traffic is published with the rounds' traffic.
  EXPECT_EQ(counter_value(snap, "iot.uplink_bytes"),
            network.stats().uplink_bytes);
  EXPECT_EQ(counter_value(snap, "iot.frames_dropped"),
            network.stats().dropped_frames);
  // Both outcomes are catalogued counters (the exposition gate checks
  // names and kinds; this snapshot is too small for its coverage floor).
  using Problems = std::vector<std::string>;
  EXPECT_EQ(telemetry::exposition_schema_problems(
                telemetry::prometheus::render(snap)),
            Problems{});
  for (const char* name :
       {"iot.station.deltas_applied", "iot.resync_fallbacks"}) {
    const auto* meta = telemetry::find_metric_metadata(name);
    ASSERT_NE(meta, nullptr) << name;
    EXPECT_EQ(meta->kind, telemetry::MetricKind::kCounter) << name;
  }
}

TEST(TelemetryIntegrationTest, RefusedSaleCountsARefusalAndNoSale) {
  telemetry::Telemetry::registry().reset();

  constexpr std::size_t kNodes = 4;
  iot::FlatNetwork network(synthetic_node_data(kNodes, 100, 21), {});
  dp::PrivateRangeCounter counter(network, {}, 23);
  const pricing::VarianceModel model(kNodes * 100, kNodes);
  auto pricing_fn = std::make_unique<pricing::InverseVariancePricing>(
      model, query::AccuracySpec{0.1, 0.5}, 100.0, 1.0);
  market::BrokerConfig config;
  config.per_consumer_epsilon_cap = 1e-9;  // everything exceeds this
  market::DataBroker broker(counter, std::move(pricing_fn), config);

  EXPECT_THROW(broker.sell("c", query::RangeQuery{10.0, 90.0},
                           query::AccuracySpec{0.05, 0.8}),
               market::BudgetExceededError);

  const auto snap = telemetry::Telemetry::registry().snapshot();
  EXPECT_EQ(counter_value(snap, "market.sale_attempts"), 1u);
  EXPECT_EQ(counter_value(snap, "market.refusals_budget"), 1u);
  EXPECT_EQ(counter_value(snap, "market.sales"), 0u);
}

}  // namespace
}  // namespace prc
