// Continuous monitoring: data streams in from the sensors while an agency
// keeps a three-band pollution dashboard fresh.  Each week it buys the three
// bands from the broker as one consumer, and the broker's ledger charges
// every answer's amplified epsilon' against that consumer's cap; once the
// cap is reached, the broker refuses the sale before any noise is drawn.
//
// Demonstrates: append_data / refresh_samples (incremental collection),
// DataBroker::try_sell under a per-consumer epsilon' cap, and the ledger of
// a long-running deployment.
//
// Run: ./build/examples/streaming_monitor
#include <algorithm>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/table.h"
#include "data/citypulse.h"
#include "data/dataset.h"
#include "data/partition.h"
#include "dp/private_counting.h"
#include "iot/network.h"
#include "market/broker.h"
#include "pricing/pricing.h"
#include "query/range_query.h"

int main() {
  using namespace prc;

  // Two months of ozone readings, streamed week by week.
  const auto records = data::CityPulseGenerator().generate();
  const data::Dataset dataset(records);
  const auto& ozone = dataset.column(data::AirQualityIndex::kOzone);
  const auto& values = ozone.values();
  const std::size_t kNodes = 8;
  const std::size_t week = 288 * 7;  // records per week at 5-min cadence

  // Bootstrap with the first week.
  std::vector<double> seen(values.begin(),
                           values.begin() + static_cast<std::ptrdiff_t>(week));
  Rng rng(42);
  iot::FlatNetwork network(data::partition_values(
      seen, kNodes, data::PartitionStrategy::kRoundRobin, rng));
  dp::PrivateRangeCounter counter(network, {}, 43);

  // The agency's lifetime budget: every band it buys is charged to it.
  const double epsilon_cap = 0.1;
  market::BrokerConfig config;
  config.per_consumer_epsilon_cap = epsilon_cap;
  market::DataBroker broker(
      counter,
      std::make_unique<pricing::InverseVariancePricing>(
          pricing::VarianceModel(values.size(), kNodes),
          query::AccuracySpec{0.1, 0.5}, 100.0, 1.0),
      config);
  const std::string agency = "agency";

  const std::vector<query::RangeQuery> bands = {
      {0.0, 50.0}, {50.0, 100.0}, {100.0, 200.0}};
  // The unhealthy band matters most to the regulator: it buys that band
  // under a stricter contract, which costs more epsilon'.
  const std::vector<query::AccuracySpec> contracts = {
      {0.1, 0.5}, {0.1, 0.5}, {0.05, 0.8}};

  TextTable dashboard({"week", "good", "moderate", "unhealthy",
                       "unhealthy_exact", "eps'_spent", "uplink_kB"});
  std::size_t reported_week = 1;
  std::size_t refusals = 0;
  for (std::size_t offset = week; offset < values.size(); offset += week) {
    const std::size_t end = std::min(offset + week, values.size());
    std::vector<double> batch(
        values.begin() + static_cast<std::ptrdiff_t>(offset),
        values.begin() + static_cast<std::ptrdiff_t>(end));
    seen.insert(seen.end(), batch.begin(), batch.end());
    // This week's readings arrive at one gateway node (rotating).
    network.append_data(reported_week % kNodes, batch);
    network.refresh_samples();

    std::vector<std::string> cells = {std::to_string(reported_week)};
    for (std::size_t b = 0; b < bands.size(); ++b) {
      const auto outcome = broker.try_sell(agency, bands[b], contracts[b]);
      if (outcome.sold()) {
        cells.push_back(dashboard.format(outcome.receipt().value));
      } else {
        ++refusals;
        cells.push_back("refused");
        std::cout << "week " << reported_week << ": "
                  << outcome.refusal().message(agency) << "\n";
      }
    }
    cells.push_back(dashboard.format(static_cast<double>(
        query::exact_range_count(seen, bands[2]))));
    cells.push_back(
        dashboard.format(broker.ledger().consumer_epsilon(agency).value()));
    cells.push_back(dashboard.format(
        static_cast<double>(network.stats().uplink_bytes) / 1024.0));
    dashboard.add_row(cells);
    ++reported_week;
  }
  const auto& ledger = broker.ledger();
  std::cout << "\nweekly pollution dashboard (one consumer, epsilon' cap "
            << epsilon_cap << ")\n\n"
            << dashboard.to_string() << "\n"
            << "ledger: " << ledger.transaction_count() << " sales, "
            << refusals << " refused, agency's epsilon' "
            << ledger.consumer_epsilon(agency).value() << " of " << epsilon_cap
            << ", revenue " << ledger.total_revenue() << "\n"
            << "total uplink: " << network.stats().uplink_bytes / 1024
            << " kB vs " << values.size() * sizeof(double) / 1024
            << " kB raw\n";
  return 0;
}
