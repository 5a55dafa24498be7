// Continuous-collection scenario (the paper's "one sample, multiple
// queries" protocol under data arrival).
//
// Data streams into the network day by day; the broker answers a standing
// query after every batch.  Compares three refresh policies:
//   eager    — resync changed nodes after every batch (always-fresh cache),
//   lazy     — resync only every R batches (stale answers in between),
//   resample — discard and recollect from scratch each batch (the naive
//              strawman the paper's incremental protocol avoids).
// Reports accuracy and cumulative uplink bytes per policy.
#include <iostream>

#include "bench_common.h"
#include "iot/network.h"
#include "common/statistics.h"
#include "query/workload.h"

namespace {

using namespace prc;

struct PolicyResult {
  double mean_rel_err = 0.0;
  double max_rel_err = 0.0;
  std::size_t uplink_bytes = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const auto options = bench::parse_options(argc, argv);
  // --nodes scales the fleet (e.g. 1000 for the parallel-collection
  // speedup scenario); the default stays the paper-sized 8-node setup.
  const std::size_t kNodes = options.nodes != 0 ? options.nodes : 8;
  const double p = 0.15;
  const std::size_t kBatches = 30;

  const auto records = bench::load_records(options);
  const data::Dataset dataset(records);
  const auto& column = dataset.column(data::AirQualityIndex::kOzone);
  const auto& all_values = column.values();
  const std::size_t batch_size = all_values.size() / (kBatches + 1);

  std::cout << "Streaming collection: " << kBatches << " arrival batches of "
            << batch_size << " readings onto " << kNodes
            << " nodes, standing query re-answered per batch (p = " << p
            << ")\n\n";

  const query::RangeQuery standing{60.0, 110.0};

  auto run_policy = [&](std::size_t refresh_every,
                        bool resample_from_scratch) {
    PolicyResult result;
    RunningStats err;
    // Initial corpus: the first batch_size readings.
    std::vector<double> seen(all_values.begin(),
                             all_values.begin() +
                                 static_cast<std::ptrdiff_t>(batch_size));
    Rng rng(options.seed);
    auto initial = data::partition_values(
        seen, kNodes, data::PartitionStrategy::kRoundRobin, rng);
    iot::NetworkConfig net_config;
    net_config.seed = options.seed + 3;
    auto network = std::make_unique<iot::FlatNetwork>(initial, net_config);
    network->ensure_sampling_probability(p);

    for (std::size_t b = 1; b <= kBatches; ++b) {
      const std::size_t begin = b * batch_size;
      const std::size_t end = std::min(begin + batch_size,
                                       all_values.size());
      std::vector<double> batch(all_values.begin() +
                                    static_cast<std::ptrdiff_t>(begin),
                                all_values.begin() +
                                    static_cast<std::ptrdiff_t>(end));
      seen.insert(seen.end(), batch.begin(), batch.end());

      if (resample_from_scratch) {
        const std::size_t carried_bytes = network->stats().uplink_bytes;
        Rng prng(options.seed + b);
        auto node_data = data::partition_values(
            seen, kNodes, data::PartitionStrategy::kRoundRobin, prng);
        iot::NetworkConfig fresh;
        fresh.seed = options.seed + 100 + b;
        auto rebuilt = std::make_unique<iot::FlatNetwork>(node_data, fresh);
        rebuilt->ensure_sampling_probability(p);
        result.uplink_bytes += carried_bytes;  // bank the old network's bill
        network = std::move(rebuilt);
      } else {
        // Each batch is produced by one sensor (arrivals are local to the
        // device that observed them), so only that node's cache goes stale
        // — the incremental protocol resyncs just that node.
        network->append_data(b % kNodes, batch);
        if (b % refresh_every == 0) network->refresh_samples();
      }

      const double truth = static_cast<double>(
          query::exact_range_count(seen, standing));
      const double estimate = network->rank_counting_estimate(standing);
      err.add(bench::relative_error(estimate, truth));
    }
    result.uplink_bytes += network->stats().uplink_bytes;
    result.mean_rel_err = err.mean();
    result.max_rel_err = err.max();
    return result;
  };

  TextTable table({"policy", "mean_rel_err", "max_rel_err", "uplink_bytes"});
  const auto eager = run_policy(1, false);
  table.add_row({"eager refresh (every batch)", table.format(eager.mean_rel_err),
                 table.format(eager.max_rel_err),
                 std::to_string(eager.uplink_bytes)});
  const auto lazy = run_policy(5, false);
  table.add_row({"lazy refresh (every 5 batches)",
                 table.format(lazy.mean_rel_err),
                 table.format(lazy.max_rel_err),
                 std::to_string(lazy.uplink_bytes)});
  const auto scratch = run_policy(1, true);
  table.add_row({"resample from scratch", table.format(scratch.mean_rel_err),
                 table.format(scratch.max_rel_err),
                 std::to_string(scratch.uplink_bytes)});
  bench::emit(table, options);
  std::cout << "\n# shape check: eager refresh tracks the stream; lazy\n"
            << "# refresh pays the same bytes eventually but serves stale\n"
            << "# (high-error) answers between refreshes; from-scratch\n"
            << "# resampling matches eager accuracy at a several-fold\n"
            << "# higher cumulative bill - the incremental top-up protocol\n"
            << "# is what makes one-sample-many-queries economical.\n";
  return 0;
}
