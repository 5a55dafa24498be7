// Prometheus exposition layer: golden render output, metadata-driven HELP
// text, round-trip through the promtool-style parser, histogram
// cumulativity, rejection of malformed expositions, and the telemetry
// schema gate behind `prc_query check-telemetry`.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/metrics_metadata.h"
#include "common/prometheus.h"
#include "common/telemetry.h"

namespace prc::telemetry {
namespace {

TelemetrySnapshot golden_snapshot() {
  TelemetrySnapshot snapshot;
  snapshot.counters.emplace_back("market.sales", 3);
  snapshot.gauges.emplace_back("dp.epsilon_spent_total", 1.5);
  HistogramSnapshot hist;
  hist.name = "pricing.price";
  hist.count = 6;
  hist.sum = 7.5;
  hist.min = 0.5;
  hist.max = 3.0;
  hist.p50 = 1.5;
  hist.p95 = 3.0;
  hist.p99 = 3.0;
  hist.bounds = {1.0, 2.0};
  hist.bucket_counts = {1, 2, 3};  // non-cumulative + overflow slot
  snapshot.histograms.push_back(hist);
  return snapshot;
}

TEST(PrometheusRenderTest, GoldenExposition) {
  const std::string rendered = prometheus::render(golden_snapshot());
  const std::string kGolden =
      "# HELP prc_market_sales_total Sales completed (answer minted, ledger "
      "committed).\n"
      "# TYPE prc_market_sales_total counter\n"
      "# UNIT prc_market_sales_total sales\n"
      "prc_market_sales_total 3\n"
      "# HELP prc_dp_epsilon_spent_total Cumulative amplified epsilon' "
      "released by the DP layer since process start (ground truth for audit "
      "reconciliation).\n"
      "# TYPE prc_dp_epsilon_spent_total gauge\n"
      "# UNIT prc_dp_epsilon_spent_total epsilon\n"
      "prc_dp_epsilon_spent_total 1.5\n"
      "# HELP prc_pricing_price Distribution of quoted prices.\n"
      "# TYPE prc_pricing_price histogram\n"
      "# UNIT prc_pricing_price price\n"
      "prc_pricing_price_bucket{le=\"1\"} 1\n"
      "prc_pricing_price_bucket{le=\"2\"} 3\n"
      "prc_pricing_price_bucket{le=\"+Inf\"} 6\n"
      "prc_pricing_price_sum 7.5\n"
      "prc_pricing_price_count 6\n";
  EXPECT_EQ(rendered, kGolden);
}

TEST(PrometheusRenderTest, UnknownMetricGetsPlaceholderHelp) {
  TelemetrySnapshot snapshot;
  snapshot.counters.emplace_back("zzz.unknown", 1);
  const std::string rendered = prometheus::render(snapshot);
  EXPECT_NE(rendered.find("(no registered metadata for zzz.unknown"),
            std::string::npos);
  EXPECT_NE(rendered.find("prc_zzz_unknown_total 1\n"), std::string::npos);
}

TEST(PrometheusRenderTest, CounterAlreadySuffixedIsNotDoubled) {
  TelemetrySnapshot snapshot;
  snapshot.counters.emplace_back("zzz.things_total", 2);
  const std::string rendered = prometheus::render(snapshot);
  EXPECT_NE(rendered.find("prc_zzz_things_total 2\n"), std::string::npos);
  EXPECT_EQ(rendered.find("_total_total"), std::string::npos);
}

TEST(PrometheusRenderTest, NonFiniteGaugeRoundTrips) {
  TelemetrySnapshot snapshot;
  snapshot.gauges.emplace_back("zzz.cap",
                               std::numeric_limits<double>::infinity());
  const std::string rendered = prometheus::render(snapshot);
  EXPECT_NE(rendered.find("prc_zzz_cap +Inf\n"), std::string::npos);
  const auto parsed = prometheus::parse_exposition(rendered);
  ASSERT_NE(parsed.find("prc_zzz_cap"), nullptr);
  EXPECT_TRUE(std::isinf(parsed.find("prc_zzz_cap")->samples[0].value));
}

TEST(PrometheusRenderTest, SanitizeMetricName) {
  EXPECT_EQ(prometheus::sanitize_metric_name("iot.round_duration_us"),
            "prc_iot_round_duration_us");
  EXPECT_EQ(prometheus::sanitize_metric_name("iot.station.cached_samples"),
            "prc_iot_station_cached_samples");
  EXPECT_EQ(prometheus::sanitize_metric_name("weird-name+x"),
            "prc_weird_name_x");
}

TEST(PrometheusRenderTest, ContentTypeIsExposition004) {
  EXPECT_EQ(std::string(prometheus::content_type()),
            "text/plain; version=0.0.4; charset=utf-8");
}

TEST(PrometheusRoundTripTest, LiveRegistryRendersAndParses) {
  Telemetry::registry().reset();
  telemetry::counter("market.sales").increment(5);
  telemetry::gauge("iot.round_coverage").set(0.75);
  auto& hist = telemetry::histogram("dp.answer_duration_us");
  hist.record(3.0);
  hist.record(250.0);
  hist.record(1e12);  // lands in the overflow bucket

  const auto snapshot = Telemetry::registry().snapshot();
  const std::string rendered = prometheus::render(snapshot);
  const auto parsed = prometheus::parse_exposition(rendered);
  ASSERT_EQ(parsed.families.size(), 3u);

  const auto* sales = parsed.find("prc_market_sales_total");
  ASSERT_NE(sales, nullptr);
  EXPECT_EQ(sales->type, "counter");
  ASSERT_EQ(sales->samples.size(), 1u);
  EXPECT_EQ(sales->samples[0].value, 5.0);

  const auto* coverage = parsed.find("prc_iot_round_coverage");
  ASSERT_NE(coverage, nullptr);
  EXPECT_EQ(coverage->type, "gauge");
  EXPECT_NEAR(coverage->samples[0].value, 0.75, 0.0);

  // parse_exposition already enforced le-ascending + cumulative +
  // +Inf == _count for the histogram; spot-check the series shape.
  const auto* latency = parsed.find("prc_dp_answer_duration_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->type, "histogram");
  double count = 0.0;
  bool saw_inf_bucket = false;
  for (const auto& sample : latency->samples) {
    if (sample.name == "prc_dp_answer_duration_us_count") {
      count = sample.value;
    }
    if (sample.label("le") == "+Inf") saw_inf_bucket = true;
  }
  EXPECT_EQ(count, 3.0);
  EXPECT_TRUE(saw_inf_bucket);
  Telemetry::registry().reset();
}

TEST(PrometheusParseTest, RejectsSampleBeforeType) {
  EXPECT_THROW(prometheus::parse_exposition("prc_x 1\n"),
               std::invalid_argument);
}

TEST(PrometheusParseTest, RejectsForeignSampleInFamily) {
  const std::string text =
      "# HELP prc_a help\n# TYPE prc_a counter\nprc_b 1\n";
  EXPECT_THROW(prometheus::parse_exposition(text), std::invalid_argument);
}

TEST(PrometheusParseTest, RejectsDuplicateType) {
  const std::string text =
      "# HELP prc_a help\n# TYPE prc_a counter\nprc_a 1\n"
      "# TYPE prc_a counter\nprc_a 2\n";
  EXPECT_THROW(prometheus::parse_exposition(text), std::invalid_argument);
}

TEST(PrometheusParseTest, RejectsMissingHelp) {
  EXPECT_THROW(
      prometheus::parse_exposition("# TYPE prc_a counter\nprc_a 1\n"),
      std::invalid_argument);
}

TEST(PrometheusParseTest, RejectsFamilyWithoutSamples) {
  EXPECT_THROW(
      prometheus::parse_exposition("# HELP prc_a help\n# TYPE prc_a gauge\n"),
      std::invalid_argument);
}

TEST(PrometheusParseTest, RejectsUnparseableValue) {
  const std::string text =
      "# HELP prc_a help\n# TYPE prc_a gauge\nprc_a banana\n";
  EXPECT_THROW(prometheus::parse_exposition(text), std::invalid_argument);
}

TEST(PrometheusParseTest, RejectsNonCumulativeHistogram) {
  const std::string text =
      "# HELP prc_h help\n"
      "# TYPE prc_h histogram\n"
      "prc_h_bucket{le=\"1\"} 5\n"
      "prc_h_bucket{le=\"2\"} 3\n"
      "prc_h_bucket{le=\"+Inf\"} 6\n"
      "prc_h_sum 9\n"
      "prc_h_count 6\n";
  EXPECT_THROW(prometheus::parse_exposition(text), std::invalid_argument);
}

TEST(PrometheusParseTest, RejectsInfBucketCountMismatch) {
  const std::string text =
      "# HELP prc_h help\n"
      "# TYPE prc_h histogram\n"
      "prc_h_bucket{le=\"1\"} 1\n"
      "prc_h_bucket{le=\"+Inf\"} 6\n"
      "prc_h_sum 9\n"
      "prc_h_count 7\n";
  EXPECT_THROW(prometheus::parse_exposition(text), std::invalid_argument);
}

TEST(PrometheusParseTest, ToleratesTimestampsAndUnitComments) {
  const std::string text =
      "# HELP prc_a help text with words\n"
      "# UNIT prc_a bytes\n"
      "# TYPE prc_a gauge\n"
      "prc_a 42 1700000000000\n";
  const auto parsed = prometheus::parse_exposition(text);
  ASSERT_EQ(parsed.families.size(), 1u);
  EXPECT_EQ(parsed.families[0].help, "help text with words");
  EXPECT_EQ(parsed.families[0].samples[0].value, 42.0);
}

TEST(MetricMetadataTest, TableIsUniqueAndComplete) {
  const auto& table = all_metric_metadata();
  ASSERT_FALSE(table.empty());
  std::set<std::string> names;
  std::set<std::string> sanitized;
  for (const auto& entry : table) {
    EXPECT_TRUE(names.insert(entry.name).second)
        << "duplicate metadata entry " << entry.name;
    EXPECT_TRUE(
        sanitized.insert(prometheus::sanitize_metric_name(entry.name)).second)
        << "sanitized-name collision for " << entry.name;
    EXPECT_NE(std::string(entry.unit), "") << entry.name << " has no unit";
    EXPECT_NE(std::string(entry.help), "") << entry.name << " has no help";
    EXPECT_NE(std::string(metric_kind_name(entry.kind)), "");
  }
}

TEST(MetricMetadataTest, LookupFindsRegisteredAndRejectsUnknown) {
  const MetricMetadata* sales = find_metric_metadata("market.sales");
  ASSERT_NE(sales, nullptr);
  EXPECT_EQ(sales->kind, MetricKind::kCounter);
  EXPECT_EQ(std::string(sales->unit), "sales");
  EXPECT_EQ(find_metric_metadata("zzz.not_a_metric"), nullptr);
}

// One metric per metadata entry, each in the section its kind names: the
// smallest snapshot the schema gate accepts without reservation.
TelemetrySnapshot registered_snapshot() {
  TelemetrySnapshot snapshot;
  for (const auto& entry : all_metric_metadata()) {
    if (entry.kind == MetricKind::kCounter) {
      snapshot.counters.emplace_back(entry.name, 1);
    } else if (entry.kind == MetricKind::kGauge) {
      snapshot.gauges.emplace_back(entry.name, 1.0);
    } else {
      HistogramSnapshot hist;
      hist.name = entry.name;
      hist.count = 3;
      hist.bounds = {1.0, 2.0};
      hist.bucket_counts = {1, 1, 1};
      snapshot.histograms.push_back(hist);
    }
  }
  return snapshot;
}

// The single message the gate reports, or a marker when it reports none
// or several.
std::string only_problem(const std::vector<std::string>& problems) {
  return problems.size() == 1 ? problems.front()
                              : std::to_string(problems.size()) + " problems";
}

TEST(TelemetrySchemaTest, RegisteredSnapshotAndItsExpositionPass) {
  const auto snapshot = registered_snapshot();
  EXPECT_TRUE(snapshot_schema_problems(snapshot).empty());
  EXPECT_TRUE(exposition_schema_problems(prometheus::render(snapshot))
                  .empty());
}

TEST(TelemetrySchemaTest, FlagsMetricExportedInTheWrongSection) {
  auto snapshot = registered_snapshot();
  snapshot.gauges.emplace_back(snapshot.counters.back().first, 1.0);
  snapshot.counters.pop_back();
  EXPECT_NE(only_problem(snapshot_schema_problems(snapshot))
                .find("is registered as a counter but exported in the gauge "
                      "section"),
            std::string::npos);
}

TEST(TelemetrySchemaTest, FlagsBucketSumMismatch) {
  auto snapshot = registered_snapshot();
  snapshot.histograms.front().count = 4;
  EXPECT_NE(only_problem(snapshot_schema_problems(snapshot))
                .find("bucket counts sum to 3 but count is 4"),
            std::string::npos);
}

TEST(TelemetrySchemaTest, FlagsBoundsThatDoNotIncrease) {
  auto snapshot = registered_snapshot();
  snapshot.histograms.front().bounds = {2.0, 2.0};
  EXPECT_NE(only_problem(snapshot_schema_problems(snapshot))
                .find("strictly increasing"),
            std::string::npos);
}

TEST(TelemetrySchemaTest, FlagsMissingLayer) {
  auto snapshot = registered_snapshot();
  const auto is_pricing = [](const std::string& name) {
    return name.rfind("pricing.", 0) == 0;
  };
  std::erase_if(snapshot.counters,
                [&](const auto& c) { return is_pricing(c.first); });
  std::erase_if(snapshot.gauges,
                [&](const auto& g) { return is_pricing(g.first); });
  std::erase_if(snapshot.histograms,
                [&](const auto& h) { return is_pricing(h.name); });
  EXPECT_EQ(only_problem(snapshot_schema_problems(snapshot)),
            "no metrics from layer pricing.");
}

TEST(TelemetrySchemaTest, FlagsFamilyWithoutMetadata) {
  const std::string text = prometheus::render(registered_snapshot()) +
                           "# HELP prc_zzz_unknown x\n"
                           "# TYPE prc_zzz_unknown gauge\n"
                           "prc_zzz_unknown 1\n";
  EXPECT_EQ(only_problem(exposition_schema_problems(text)),
            "family prc_zzz_unknown has no PRC_METRIC entry in "
            "src/common/metrics_metadata.inc");
}

TEST(TelemetrySchemaTest, FlagsTypeThatDisagreesWithMetadata) {
  const std::string text =
      "# HELP prc_market_sales_total Sales.\n"
      "# TYPE prc_market_sales_total gauge\n"
      "prc_market_sales_total 3\n";
  EXPECT_EQ(only_problem(exposition_schema_problems(text)),
            "family prc_market_sales_total has TYPE gauge but market.sales "
            "is registered as a counter");
}

}  // namespace
}  // namespace prc::telemetry
