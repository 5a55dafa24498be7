// Degraded collection sweep: what fault injection costs and what the
// coverage-aware estimator buys back.
//
// Sweeps i.i.d. frame loss x node churn x per-frame retry budget.  Each cell
// runs a few escalating top-up rounds under the faulty channel and reports
//   * the coverage the cache actually reached (fraction of known data at the
//     round target) and the frames abandoned by the retry budget,
//   * the uplink bill (bounded budgets trade bytes for completeness),
//   * the relative error of the per-node Horvitz-Thompson estimate vs the
//     seed-style global-p estimate (which silently assumes every node
//     reached the round target and is biased whenever churn left stragglers),
//   * how often the error stayed inside the heterogeneous Chebyshev bound
//     computed from the ACHIEVED per-node probabilities — the honest
//     contract a degraded cache can still quote.
#include <algorithm>
#include <iostream>

#include "bench_common.h"
#include "common/statistics.h"
#include "estimator/accuracy.h"
#include "estimator/rank_counting.h"
#include "query/workload.h"

namespace {

using namespace prc;

std::string attempts_label(std::size_t max_attempts) {
  return max_attempts == 0 ? "inf" : std::to_string(max_attempts);
}

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv);
  const std::size_t trials = options.trials == 0 ? 10 : options.trials;
  const std::size_t kNodes = 12;

  const auto records = bench::load_records(options);
  const data::Dataset dataset(records);
  const auto& column = dataset.column(data::AirQualityIndex::kOzone);
  const auto& values = column.values();

  // Interior reference query: the middle half of the value distribution.
  std::vector<double> sorted(values);
  std::sort(sorted.begin(), sorted.end());
  const query::RangeQuery range{sorted[sorted.size() / 4],
                                sorted[(3 * sorted.size()) / 4]};
  const double truth =
      static_cast<double>(query::exact_range_count(values, range));

  const double kLoss[] = {0.0, 0.3, 0.6};
  const double kCrash[] = {0.0, 0.1, 0.3};
  const std::size_t kAttempts[] = {1, 3, 0};
  const double rounds[] = {0.05, 0.1, 0.15, 0.2};

  std::cout << "Degraded collection sweep: " << kNodes << " nodes, "
            << values.size() << " readings, 4 top-up rounds to p = 0.2, "
            << trials << " trials per cell\n"
            << "reference query [" << range.lower << ", " << range.upper
            << "], true count " << truth << "\n\n";

  TextTable table({"loss", "crash", "attempts", "coverage", "dropped",
                   "uplink_kB", "hetero_bias", "globalp_bias", "in_bound"});

  for (const double loss : kLoss) {
    for (const double crash : kCrash) {
      for (const std::size_t max_attempts : kAttempts) {
        RunningStats coverage, dropped, uplink, hetero_err, global_err;
        std::size_t bound_checks = 0;
        std::size_t bound_hits = 0;
        for (std::size_t t = 0; t < trials; ++t) {
          Rng rng(options.seed + t * 977);
          const auto node_data = data::partition_values(
              values, kNodes, data::PartitionStrategy::kRoundRobin, rng);
          iot::NetworkConfig config;
          config.seed = options.seed + t * 31 + 7;
          config.frame_loss_probability = loss;
          config.max_attempts = max_attempts;
          config.faults.crash_probability = crash;
          config.faults.rejoin_probability = 0.5;
          config.faults.seed = options.seed + t * 61 + 13;
          iot::FlatNetwork network(node_data, config);

          for (const double p : rounds) network.ensure_sampling_probability(p);

          const auto view = network.base_station().view();
          const auto& cov = view->coverage;
          coverage.add(cov.coverage);
          dropped.add(static_cast<double>(network.stats().dropped_frames));
          uplink.add(static_cast<double>(network.stats().uplink_bytes) /
                     1024.0);

          // Both estimators can only see data the station has heard of;
          // never-reported nodes are an unavoidable shortfall already
          // captured by the coverage column.  Bias is therefore measured
          // against the KNOWN-data truth, which isolates the estimator
          // property: the seed-style global-p estimate applies the
          // round-target correction to samples stragglers collected at an
          // older, smaller p, so its mean drifts positive under churn,
          // while the per-node correction centers on zero.
          double known_truth = 0.0;
          for (std::size_t i = 0; i < kNodes; ++i) {
            if (view->reported[i]) {
              known_truth += static_cast<double>(
                  query::exact_range_count(node_data[i], range));
            }
          }
          if (known_truth <= 0.0) continue;
          const double hetero = view->rank_counting_estimate(range);
          const double global = estimator::rank_counting_estimate(
              view->nodes, cov.target_p, range);
          hetero_err.add((hetero - known_truth) / known_truth);
          global_err.add((global - known_truth) / known_truth);

          if (cov.min_probability > 0.0) {
            ++bound_checks;
            const double bound = estimator::heterogeneous_error_bound(
                view->probabilities, 0.95);
            if (std::abs(hetero - known_truth) <= bound) ++bound_hits;
          }
        }
        const std::string in_bound =
            bound_checks == 0
                ? "n/a"
                : table.format(static_cast<double>(bound_hits) /
                               static_cast<double>(bound_checks));
        table.add_row({table.format(loss), table.format(crash),
                       attempts_label(max_attempts),
                       table.format(coverage.mean()),
                       table.format(dropped.mean()),
                       table.format(uplink.mean()),
                       table.format(hetero_err.mean()),
                       table.format(global_err.mean()), in_bound});
      }
    }
  }

  bench::emit(table, options);
  std::cout
      << "\n# shape check: with no faults every budget reaches coverage 1\n"
      << "# and both estimators agree.  Loss with attempts=1 drops frames\n"
      << "# and lowers coverage; unbounded retries keep coverage 1 at a\n"
      << "# higher uplink bill.  Churn leaves stragglers at older p_i:\n"
      << "# against the station-known data, globalp_bias drifts positive\n"
      << "# (the round-target correction undercorrects samples collected\n"
      << "# at a smaller p) while hetero_bias centers on zero and stays\n"
      << "# inside the bound quoted from achieved probabilities.\n";
  return 0;
}
