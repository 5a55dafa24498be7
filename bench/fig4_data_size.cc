// Figure 4: sampling probability vs data size.
//
// Paper setup: alpha = 0.055, delta = 0.5; the dataset is scaled from 10%
// to 100% of the original and the Theorem 3.3 sampling probability is
// plotted.  Expected shape: p falls like 1/n, so the absolute number of
// samples collected converges to a constant — the "suitable for big data"
// claim (overhead does not grow with data volume).
#include <algorithm>
#include <iostream>

#include "bench_common.h"
#include "estimator/accuracy.h"

int main(int argc, char** argv) {
  using namespace prc;
  const auto options = bench::parse_options(argc, argv);
  const std::size_t kNodes = 8;
  const query::AccuracySpec spec{0.055, 0.5};

  const auto records = bench::load_records(options);

  std::cout << "Figure 4: sampling probability vs data size (alpha=0.055, "
               "delta=0.5)\n"
            << "# k=" << kNodes << " nodes\n\n";

  TextTable table({"data_fraction", "n", "p(Thm3.3)", "expected_samples",
                   "measured_samples"});
  for (int percent = 10; percent <= 100; percent += 10) {
    const std::size_t count =
        records.size() * static_cast<std::size_t>(percent) / 100;
    const data::Dataset dataset = data::Dataset::prefix(records, count);
    const auto& column = dataset.column(data::AirQualityIndex::kOzone);
    const std::size_t n = column.size();
    const double p = std::min(
        1.0, estimator::required_sampling_probability(spec, kNodes, n));

    auto network = bench::make_network(column, kNodes,
                                       options.seed + percent);
    network.ensure_sampling_probability(p);
    table.add_row({table.format(percent / 100.0), std::to_string(n),
                   table.format(p),
                   table.format(p * static_cast<double>(n)),
                   std::to_string(
                       network.base_station().view()->cached_samples)});
  }
  bench::emit(table, options);
  std::cout << "\n# paper shape check: p should decay ~1/n while the sample\n"
            << "# count stays flat (the sqrt(8k)*2/(alpha*sqrt(1-delta))\n"
            << "# constant), so bigger data does NOT mean more traffic.\n";
  return 0;
}
