// Figure 2: querying accuracy vs sampling probability p.
//
// Paper setup: maximum relative error of the sampling algorithm while p
// increases from 0.0173 to 0.4048 over the CityPulse pollution data.
// Expected shape: error is high and oscillating for small p (the paper
// reports up to 27% below p = 0.12 on single runs), drops quickly, and is
// small and stable (<~3%) once >= 5-15% of the data is preserved.
#include <iostream>

#include "bench_common.h"
#include "common/statistics.h"
#include "query/workload.h"

int main(int argc, char** argv) {
  using namespace prc;
  const auto options = bench::parse_options(argc, argv);
  const std::size_t trials = options.trials ? options.trials : 20;
  const std::size_t kNodes = 8;

  const auto records = bench::load_records(options);
  const data::Dataset dataset(records);
  const auto& column = dataset.column(data::AirQualityIndex::kOzone);
  const auto suite = query::default_evaluation_suite(column);

  std::cout << "Figure 2: max relative error vs sampling probability p\n"
            << "# index=ozone, k=" << kNodes << " nodes, |D|="
            << column.size() << ", " << suite.size() << " range queries, "
            << trials << " trials per p\n\n";

  TextTable table({"p", "max_rel_err", "mean_rel_err", "p95_rel_err",
                   "samples"});
  // The paper sweeps p in [0.0173, 0.4048]; use an even grid over the same
  // interval.
  const std::vector<double> probabilities = {
      0.0173, 0.03, 0.05, 0.08, 0.12, 0.15, 0.20,
      0.25,   0.30, 0.35, 0.4048};

  for (double p : probabilities) {
    RunningStats err_stats;
    std::vector<double> errors;
    double samples = 0.0;
    for (std::size_t t = 0; t < trials; ++t) {
      auto network = bench::make_network(
          column, kNodes, options.seed + 977 * t + 1);
      network.ensure_sampling_probability(p);
      samples += static_cast<double>(
          network.base_station().view()->cached_samples);
      for (const auto& q : suite) {
        const double truth = static_cast<double>(
            column.exact_range_count(q.lower, q.upper));
        if (truth < static_cast<double>(column.size()) * 0.05) {
          continue;  // relative error blows up on near-empty ranges
        }
        const double err = bench::relative_error(
            network.rank_counting_estimate(q), truth);
        err_stats.add(err);
        errors.push_back(err);
      }
    }
    table.add_row({table.format(p), table.format(err_stats.max()),
                   table.format(err_stats.mean()),
                   table.format(quantile(errors, 0.95)),
                   std::to_string(static_cast<std::size_t>(
                       samples / static_cast<double>(trials)))});
  }
  bench::emit(table, options);
  std::cout << "\n# paper shape check: error should fall sharply with p and\n"
            << "# stabilize at a few percent once p exceeds ~0.05-0.15.\n";
  return 0;
}
