// google-benchmark micro-benchmarks of the hot paths: per-node estimation,
// global estimation, batched multi-query estimation, sampling top-up, the
// perturbation optimizer, the plan cache's miss-put-evict cycle, the attack
// search and the quote histogram's batch record, one whole cached sale, one
// refused sale, the station's estimate after an arrival, a sale's WAL
// append, a full sample report's encode, Laplace draws, CSV parsing and the
// (retired) per-ingest rank audit.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/csv.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "data/citypulse.h"
#include "data/dataset.h"
#include "data/partition.h"
#include "dp/laplace_mechanism.h"
#include "dp/optimizer.h"
#include "dp/plan_cache.h"
#include "dp/private_counting.h"
#include "estimator/basic_counting.h"
#include "estimator/rank_counting.h"
#include "iot/base_station.h"
#include "iot/codec.h"
#include "iot/network.h"
#include "iot/node.h"
#include "market/audit_log.h"
#include "market/broker.h"
#include "market/ledger.h"
#include "market/simulation.h"
#include "market/wal.h"
#include "pricing/arbitrage.h"
#include "pricing/pricing.h"
#include "pricing/variance_model.h"
#include "sampling/local_sampler.h"

namespace {

using namespace prc;

std::vector<double> make_values(std::size_t n) {
  std::vector<double> values(n);
  Rng rng(17);
  for (auto& v : values) v = rng.uniform(0.0, 200.0);
  return values;
}

sampling::RankSampleSet make_sample(std::size_t n, double p) {
  sampling::LocalSampler sampler(make_values(n));
  Rng rng(23);
  sampler.raise_probability(p, rng);
  return sampler.current_sample();
}

void BM_NodeEstimate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto sample = make_sample(n, 0.2);
  const query::RangeQuery range{40.0, 160.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        estimator::rank_counting_node_estimate(sample, n, 0.2, range));
  }
}
BENCHMARK(BM_NodeEstimate)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_BasicEstimate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto sample = make_sample(n, 0.2);
  const query::RangeQuery range{40.0, 160.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        estimator::basic_counting_node_estimate(sample, 0.2, range));
  }
}
BENCHMARK(BM_BasicEstimate)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_GlobalEstimate(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  std::vector<sampling::RankSampleSet> sets;
  std::vector<estimator::NodeSampleView> views;
  sets.reserve(k);
  for (std::size_t i = 0; i < k; ++i) sets.push_back(make_sample(2000, 0.2));
  for (const auto& s : sets) views.push_back({&s, 2000});
  const query::RangeQuery range{40.0, 160.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        estimator::rank_counting_estimate(views, 0.2, range));
  }
}
BENCHMARK(BM_GlobalEstimate)->Arg(8)->Arg(64)->Arg(512);

std::vector<query::RangeQuery> make_ranges(std::size_t count) {
  std::vector<query::RangeQuery> ranges;
  ranges.reserve(count);
  Rng rng(41);
  for (std::size_t i = 0; i < count; ++i) {
    const double lo = rng.uniform(0.0, 150.0);
    ranges.push_back({lo, lo + rng.uniform(5.0, 50.0)});
  }
  return ranges;
}

// The broker's steady-state station (128 nodes of 781 records at p = 0.285,
// about 30 000 cached samples) and 64 ranges to ask it.
constexpr std::size_t kSteadyPerNode = 781;

iot::BaseStation steady_station(std::size_t k) {
  constexpr double kP = 0.285;
  iot::BaseStation station(k);
  const sampling::RankSampleSet sample = make_sample(kSteadyPerNode, kP);
  for (std::size_t i = 0; i < k; ++i) {
    station.ingest(iot::SampleReport{static_cast<int>(i), kSteadyPerNode,
                                     sample.samples()});
  }
  station.commit_round(kP);
  return station;
}

// Four times the station term table's capacity of distinct ranges: cycled
// through one view, none of them is still in the table when it comes round
// again.
std::vector<query::RangeQuery> fresh_ranges() {
  return make_ranges(4 * iot::StationView::kEstimateMemoCapacity);
}

// A sale's read of the station cache for a range the station's term table
// does not hold: the view taken under the station lock plus the
// heterogeneous estimate over it.  Calls the estimator directly, without
// the table.
void BM_StationRankCountingEstimate(benchmark::State& state) {
  parallel::set_thread_count(1);
  const iot::BaseStation station =
      steady_station(static_cast<std::size_t>(state.range(0)));
  const auto ranges = fresh_ranges();
  std::size_t next = 0;
  for (auto _ : state) {
    const auto view = station.view();
    benchmark::DoNotOptimize(estimator::rank_counting_estimate(
        view->nodes, view->probabilities, ranges[next++ % ranges.size()]));
  }
  state.counters["cached_samples"] =
      static_cast<double>(station.cached_sample_count());
}
BENCHMARK(BM_StationRankCountingEstimate)->Arg(128);

// The same read for a range the view has answered before: the station's
// term table returns the sum it stored for this view.
void BM_StationEstimateMemoHit(benchmark::State& state) {
  parallel::set_thread_count(1);
  const iot::BaseStation station =
      steady_station(static_cast<std::size_t>(state.range(0)));
  const auto ranges = make_ranges(64);
  for (const auto& range : ranges) {
    benchmark::DoNotOptimize(station.view()->rank_counting_estimate(range));
  }
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        station.view()->rank_counting_estimate(ranges[next++ % ranges.size()]));
  }
}
BENCHMARK(BM_StationEstimateMemoHit)->Arg(128);

// The view's own method over the same ranges as
// BM_StationRankCountingEstimate: each call misses the station's term
// table, computes every term, stores and evicts.  The gap between the two
// is what the table adds to a fresh range.
void BM_StationEstimateMemoMiss(benchmark::State& state) {
  parallel::set_thread_count(1);
  const iot::BaseStation station =
      steady_station(static_cast<std::size_t>(state.range(0)));
  const auto ranges = fresh_ranges();
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        station.view()->rank_counting_estimate(ranges[next++ % ranges.size()]));
  }
}
BENCHMARK(BM_StationEstimateMemoMiss)->Arg(128);

// live_collection's read pattern: one node changes (an arrival raises its
// n_i), then each of 64 ranges is asked once of the fresh view.  Every read
// finds its range in the station's term table stored for the previous
// view, with k - 1 nodes unchanged, so it recomputes one node's term and
// sums k.  The arrival and the view rebuild are timed too, one per 64
// reads.
void BM_StationEstimateAfterArrival(benchmark::State& state) {
  parallel::set_thread_count(1);
  const auto k = static_cast<std::size_t>(state.range(0));
  iot::BaseStation station = steady_station(k);
  const auto ranges = make_ranges(64);
  for (const auto& range : ranges) {
    benchmark::DoNotOptimize(station.view()->rank_counting_estimate(range));
  }
  std::size_t next = 0;
  std::size_t arrivals = 0;
  for (auto _ : state) {
    if (next % ranges.size() == 0) {
      ++arrivals;
      station.ingest(iot::SampleReport{static_cast<int>(arrivals % k),
                                       kSteadyPerNode + arrivals, {}});
    }
    benchmark::DoNotOptimize(
        station.view()->rank_counting_estimate(ranges[next++ % ranges.size()]));
  }
}
BENCHMARK(BM_StationEstimateAfterArrival)->Arg(32)->Arg(128);

// One admitted sale's bookkeeping in the ledger: reserve, then commit (two
// timeline appends, the fold and the conservation gauge), with `range(0)`
// consumer ids already on the books and sales cycling over the same 16 of
// them.  Its time must not grow with the ids the ledger has seen; compare
// the two args' medians against their spreads.  Iterations are fixed so
// both args time the same sales; at two events per iteration the run
// wraps the timeline's kRetainedEvents window, so slots are overwritten
// in place as in a long-running broker.
void BM_LedgerCommit(benchmark::State& state) {
  constexpr std::size_t kActiveConsumers = 16;
  const auto consumers = static_cast<std::size_t>(state.range(0));
  std::vector<std::string> ids;
  ids.reserve(consumers);
  market::Ledger ledger;
  const auto sell = [&ledger](const std::string& id) {
    auto reservation = ledger.try_reserve(id, 1e-4, 1e9);
    return ledger.commit(std::move(*reservation),
                         {0, id, {0, 1}, {0.1, 0.5}, 1.0, 1e-4});
  };
  for (std::size_t i = 0; i < consumers; ++i) {
    ids.push_back("consumer-" + std::to_string(i));
    sell(ids.back());
  }
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sell(ids[next++ % kActiveConsumers]));
  }
  state.counters["consumers"] = static_cast<double>(consumers);
}
BENCHMARK(BM_LedgerCommit)
    ->Arg(16)
    ->Arg(100000)
    ->Iterations(1 << 17)
    ->Repetitions(5)
    ->ReportAggregatesOnly(true);

// One sale's WAL bookkeeping: its intent and its commit, each encoded
// through the byte codec into the writer's reused buffer and copied into
// the mapped window over a temporary log's tail, so the time is the encode,
// the copy and the page faults of fresh window pages, not a disk.
void BM_WalAppend(benchmark::State& state) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("prc_bm_wal_append_" + std::to_string(::getpid()) + ".wal"))
          .string();
  auto wal = market::wal::WriteAheadLog::open(path);
  const market::wal::IntentRecord intent{
      "consumer-7", {100.5, 3000.5}, {0.1, 0.6}, 1e-4};
  market::wal::CommitRecord commit;
  commit.transaction = {0, intent.consumer_id, intent.range, intent.spec,
                        12.5, intent.epsilon_amplified};
  for (auto _ : state) {
    commit.intent_sequence = wal->append_intent(intent);
    wal->append_commit(commit);
    ++commit.transaction.sequence;
  }
  state.counters["bytes_per_sale"] = benchmark::Counter(
      static_cast<double>(wal->bytes_appended()) /
      static_cast<double>(state.iterations()));
  wal.reset();
  std::filesystem::remove(path);
}
BENCHMARK(BM_WalAppend);

// Encoding one node's full resync: a SampleReport of 3000 samples, every
// field through the byte codec into a fresh frame.
void BM_SampleReportEncode(benchmark::State& state) {
  iot::SampleReport report;
  report.node_id = 3;
  report.data_count = 100000;
  Rng rng(11);
  for (std::uint64_t rank = 1; rank <= 3000; ++rank) {
    report.new_samples.push_back({rng.uniform(0.0, 200.0), rank * 33});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(iot::encode(report));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(
      state.iterations() * report.wire_size()));
}
BENCHMARK(BM_SampleReportEncode);

// One whole cached DataBroker::sell over `range(0)` nodes holding 100 000
// readings (menu_market's shape at k = 128): the contract was sold before,
// so the plan and quote caches hit, the round is a no-op and the station's
// term table answers the range.  What remains is the estimate snapshot,
// the Laplace draw, the mint barrier and the ledger and timeline
// bookkeeping; none of it should grow with k.  Iterations are fixed so
// both args time the same number of sales.
void BM_CachedSale(benchmark::State& state) {
  constexpr std::size_t kRecords = 100000;
  parallel::set_thread_count(1);
  const auto k = static_cast<std::size_t>(state.range(0));
  Rng rng(43);
  iot::FlatNetwork network(data::partition_values(
      make_values(kRecords), k, data::PartitionStrategy::kRoundRobin, rng));
  dp::PrivateRangeCounter counter(network);
  const pricing::VarianceModel model(kRecords, k);
  market::DataBroker broker(
      counter, std::make_unique<pricing::InverseVariancePricing>(
                   model, query::AccuracySpec{0.1, 0.5}, 100.0, 1.0));
  const query::AccuracySpec spec{0.05, 0.75};
  const auto ranges = make_ranges(16);
  for (const auto& range : ranges) {
    benchmark::DoNotOptimize(broker.sell("consumer", range, spec));
  }
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        broker.sell("consumer", ranges[next++ % ranges.size()], spec));
  }
}
BENCHMARK(BM_CachedSale)->Arg(128)->Arg(4096)->Iterations(1 << 16);

// One refused sale: a consumer who has spent two thirds of the cap asks
// for the same contract again, so the projected plan no longer fits and
// the broker refuses before any answer is drawn (bespoke_contracts'
// attackers run into the cap this way).  Arg 0 goes through sell() and
// catches the BudgetExceededError; arg 1 takes the Refusal that try_sell()
// returns.  Arg 2 takes try_sell()'s coverage refusal instead: node 0
// never reports, so no top-up reaches the contract, and the broker's
// refuse policy turns the sale down before any noise is drawn.
void BM_RefusedSale(benchmark::State& state) {
  constexpr std::size_t kRecords = 20000;
  constexpr std::size_t kNodes = 8;
  parallel::set_thread_count(1);
  const bool by_throw = state.range(0) == 0;
  const bool on_coverage = state.range(0) == 2;
  Rng rng(47);
  iot::FlatNetwork network(data::partition_values(
      make_values(kRecords), kNodes, data::PartitionStrategy::kRoundRobin,
      rng));
  if (on_coverage) network.set_node_online(0, false);
  dp::PrivateRangeCounter counter(network);
  const pricing::VarianceModel model(kRecords, kNodes);
  const query::AccuracySpec spec{0.05, 0.75};
  market::BrokerConfig config;
  if (!on_coverage) {
    config.per_consumer_epsilon_cap =
        1.5 * counter.plan_for(spec).epsilon_amplified;
  }
  market::DataBroker broker(
      counter,
      std::make_unique<pricing::InverseVariancePricing>(
          model, query::AccuracySpec{0.1, 0.5}, 100.0, 1.0),
      config);
  const query::RangeQuery range{20.0, 80.0};
  if (!on_coverage) broker.sell("consumer", range, spec);
  benchmark::IterationCount refused = 0;
  for (auto _ : state) {
    if (!by_throw) {
      const auto outcome = broker.try_sell("consumer", range, spec);
      refused += outcome.sold() ? 0 : 1;
    } else {
      try {
        benchmark::DoNotOptimize(broker.sell("consumer", range, spec));
      } catch (const market::BudgetExceededError&) {
        ++refused;
      }
    }
  }
  if (refused != state.iterations()) state.SkipWithError("a sale went through");
}
BENCHMARK(BM_RefusedSale)->Arg(0)->Arg(1)->Arg(2);

// One append to a full audit ring, which overwrites its oldest event: the
// steady-state store of every sale.  Events are sale-shaped, four in a
// row per 12-character consumer id out of 64; arg 1 gives each one the
// mint event's text, arg 0 an empty detail.  Each iteration copies a
// prepared event and moves it in, as the ledger's fold does.
void BM_AuditAppendSteadyState(benchmark::State& state) {
  std::vector<market::AuditEvent> events(256);
  for (std::size_t i = 0; i < events.size(); ++i) {
    auto& event = events[i];
    event.type = market::AuditEventType::kMint;
    event.consumer_id = "consumer-" + std::to_string(100 + (i / 4) % 64);
    event.lower = 20.0 + static_cast<double>(i % 7);
    event.upper = 80.0;
    event.alpha = 0.05;
    event.delta = 0.75;
    event.epsilon = 0.01;
    if (state.range(0) == 1) {
      event.detail = "final plan admitted; noise draw follows";
    }
  }
  market::AuditLog log;
  for (std::size_t i = 0; i <= market::AuditLog::kRetainedEvents; ++i) {
    log.append_event(events[i % events.size()]);
  }
  std::size_t next = 0;
  for (auto _ : state) {
    market::AuditEvent event = events[next++ % events.size()];
    benchmark::DoNotOptimize(log.append_event(std::move(event)));
  }
}
BENCHMARK(BM_AuditAppendSteadyState)->Arg(0)->Arg(1);

void BM_SamplerTopUp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto values = make_values(n);
  Rng rng(31);
  for (auto _ : state) {
    sampling::LocalSampler sampler(values);
    sampler.raise_probability(0.1, rng);
    sampler.raise_probability(0.3, rng);
    benchmark::DoNotOptimize(sampler.sample_count());
  }
}
BENCHMARK(BM_SamplerTopUp)->Arg(1000)->Arg(10000);

// live_collection's node shape: 100 000 readings over 32 nodes, about 190
// of a node's 3 125 readings sampled.
constexpr std::size_t kLiveReadings = 3125;
constexpr double kLiveP = 0.061;

// The node half of one arrival: the delta of a node holding one new
// reading (mid-range, so about half the state is scanned before it).
void BM_SamplerDelta(benchmark::State& state) {
  sampling::LocalSampler sampler(
      make_values(static_cast<std::size_t>(state.range(0))));
  Rng rng(29);
  sampler.raise_probability(kLiveP, rng);
  sampler.mark_reported();
  sampler.append({100.0}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.delta());
  }
}
BENCHMARK(BM_SamplerDelta)->Arg(kLiveReadings);

// The station half of one arrival: BaseStation::ingest of a one-reading
// delta into a 32-node station, node 0 holding live_collection's shape.
// The deltas are a node's real sequence of 512 single arrivals (about 30
// of them sampled), replayed in order; after the last the station takes
// the node's starting full sample again, once per 512 ingests.
void BM_StationIngestArrival(benchmark::State& state) {
  constexpr std::size_t kArrivals = 512;
  iot::SensorNode node(0, make_values(kLiveReadings), Rng(37));
  node.handle(iot::SampleRequest{0, kLiveP});
  const iot::SampleReport start = node.full_report();
  node.acknowledge();
  iot::BaseStation replay(32);
  replay.replace(start);
  std::vector<iot::SampleReport> arrivals;
  Rng values(43);
  for (std::size_t i = 0; i < kArrivals; ++i) {
    node.append_data({values.uniform(0.0, 200.0)});
    arrivals.push_back(node.report());
    if (!iot::apply_report(node, {&arrivals.back(), 1}, replay)) {
      state.SkipWithError("arrival delta rejected");
      return;
    }
  }
  iot::BaseStation station(32);
  station.replace(start);
  std::size_t next = 0;
  for (auto _ : state) {
    if (next == kArrivals) {
      station.replace(start);
      next = 0;
    }
    benchmark::DoNotOptimize(station.ingest(arrivals[next++]));
  }
}
BENCHMARK(BM_StationIngestArrival);

// Raw exhaustive-grid search cost as a function of grid size (cache off so
// every iteration pays the full sweep).  This is what the planner cost was
// before the continuous search; compare with BM_OptimizeColdVsWarm.
void BM_Optimizer(benchmark::State& state) {
  const dp::PerturbationOptimizer optimizer(
      {.grid_points = static_cast<std::size_t>(state.range(0)),
       .search_strategy = dp::SearchStrategy::kExhaustiveGrid,
       .plan_cache_capacity = 0});
  const query::AccuracySpec spec{0.05, 0.8};
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimizer.optimize(spec, 0.4, 8, 17568));
  }
}
BENCHMARK(BM_Optimizer)->Arg(64)->Arg(512)->Arg(4096);

// The production planner, cold vs warm: arg 0 prices a fresh optimizer per
// spec batch (every call is a root-finding search), arg 1 reuses one
// optimizer so every call after the first batch is a plan-cache hit.
void BM_OptimizeColdVsWarm(benchmark::State& state) {
  const bool warm = state.range(0) != 0;
  // A handful of distinct contracts, like a market session's repeat buyers.
  const std::vector<query::AccuracySpec> specs{
      {0.05, 0.8}, {0.06, 0.7}, {0.08, 0.9}, {0.1, 0.5}};
  const dp::PerturbationOptimizer shared;
  for (auto _ : state) {
    if (warm) {
      for (const auto& spec : specs) {
        benchmark::DoNotOptimize(shared.optimize(spec, 0.4, 8, 17568));
      }
    } else {
      const dp::PerturbationOptimizer fresh({.plan_cache_capacity = 0});
      for (const auto& spec : specs) {
        benchmark::DoNotOptimize(fresh.optimize(spec, 0.4, 8, 17568));
      }
    }
  }
}
BENCHMARK(BM_OptimizeColdVsWarm)->Arg(0)->Arg(1);

// One fresh contract per call, as bespoke_contracts' buyers and attackers
// draw them: (alpha, delta) from its box over 8 nodes and 17568 readings,
// plan cache off, so every call is a full search.  The
// evaluations_per_search counter (dp.grid_evaluations per call) is the
// work measure; it does not depend on how finely the host's clock ticks.
void BM_OptimizeFreshContract(benchmark::State& state) {
  const dp::PerturbationOptimizer optimizer({.plan_cache_capacity = 0});
  std::vector<query::AccuracySpec> specs(256);
  Rng rng(43);
  for (auto& spec : specs) {
    spec.alpha = rng.uniform(0.03, 0.25);
    spec.delta = rng.uniform(0.4, 0.9);
  }
  auto& evaluations = telemetry::counter("dp.grid_evaluations");
  const auto before = evaluations.value();
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimizer.optimize(specs[next], 0.4, 8, 17568));
    next = (next + 1) % specs.size();
  }
  state.counters["evaluations_per_search"] = benchmark::Counter(
      static_cast<double>(evaluations.value() - before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_OptimizeFreshContract);

// One Example 4.1 attack search: a single pass over the (alpha, delta)
// lattice that quotes each admissible cell once, at its smallest admissible
// copy count m.  Targets cycle through a fixed set drawn from the market
// simulation's contract box, so the lattice admits as many cells per call
// as the attackers' searches do.
void BM_BestAttack(benchmark::State& state) {
  const pricing::VarianceModel model(17568, 8);
  const pricing::InverseVariancePricing pricing(model, {0.1, 0.5}, 100.0,
                                                1.0);
  const pricing::AttackSimulator simulator(model);
  const market::SimulationConfig box;
  std::vector<query::AccuracySpec> targets(64);
  Rng rng(41);
  for (auto& target : targets) {
    target.alpha = rng.uniform(box.alpha_min, box.alpha_max);
    target.delta = rng.uniform(box.delta_min, box.delta_max);
  }
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(simulator.best_attack(pricing, targets[next]));
    next = (next + 1) % targets.size();
  }
}
BENCHMARK(BM_BestAttack);

// The quote histogram's batch record: 358 values shaped like one attack
// search's quotes (the admissible cells of a theorem-family lattice, in
// lattice order), into one default-bounds histogram.
void BM_HistogramRecordAll(benchmark::State& state) {
  const pricing::VarianceModel model(17568, 8);
  const pricing::InverseVariancePricing pricing(model, {0.1, 0.5}, 100.0,
                                                1.0);
  std::vector<query::AccuracySpec> specs;
  for (std::size_t ai = 1; specs.size() < 358; ++ai) {
    for (std::size_t di = 1; di <= 20 && specs.size() < 358; ++di) {
      specs.push_back({0.05 + 0.9 * static_cast<double>(ai % 40) / 40.0,
                       0.8 * static_cast<double>(di) / 21.0});
    }
  }
  const std::vector<double> quotes = pricing.price_all(specs);
  telemetry::Histogram histogram(telemetry::default_bounds());
  for (auto _ : state) {
    histogram.record_all(quotes);
    benchmark::DoNotOptimize(&histogram);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(quotes.size()));
}
BENCHMARK(BM_HistogramRecordAll);

// A fresh contract at the plan cache: a miss, a put, and the eviction of
// the least recently used plan, with the cache full at its default
// capacity.  Keys never repeat, as for a stream of bespoke contracts.
void BM_PlanCacheFreshContract(benchmark::State& state) {
  const dp::PerturbationOptimizer optimizer;
  const auto plan = optimizer.optimize({0.05, 0.8}, 0.4, 8, 17568);
  const std::size_t capacity = dp::OptimizerConfig{}.plan_cache_capacity;
  dp::PlanCache cache(capacity);
  Rng rng(43);
  const auto fresh_key = [&rng] {
    return dp::PlanCacheKey::make(rng.uniform(0.03, 0.25),
                                  rng.uniform(0.4, 0.9), 0.4, 8, 17568, 0,
                                  dp::SensitivityPolicy::kExpected);
  };
  for (std::size_t i = 0; i < capacity; ++i) cache.put(fresh_key(), plan);
  for (auto _ : state) {
    const dp::PlanCacheKey key = fresh_key();
    benchmark::DoNotOptimize(cache.lookup(key));
    cache.put(key, plan);
  }
}
BENCHMARK(BM_PlanCacheFreshContract);

void BM_LaplaceSample(benchmark::State& state) {
  const dp::LaplaceMechanism mechanism(2.5, 0.5);
  Rng rng(37);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mechanism.perturb(100.0, rng));
  }
}
BENCHMARK(BM_LaplaceSample);

void BM_CityPulseGenerate(benchmark::State& state) {
  data::CityPulseConfig config;
  config.record_count = static_cast<std::size_t>(state.range(0));
  const data::CityPulseGenerator generator(config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(generator.generate());
  }
}
BENCHMARK(BM_CityPulseGenerate)->Arg(1000)->Arg(17568)->Arg(100000);

// Set-up's data preparation after generation: the five-column Dataset plus
// the first query on the one column every experiment reads (ozone).
void BM_DatasetBuildAndFirstQuery(benchmark::State& state) {
  data::CityPulseConfig config;
  config.record_count = static_cast<std::size_t>(state.range(0));
  const auto records = data::CityPulseGenerator(config).generate();
  for (auto _ : state) {
    const data::Dataset dataset(records);
    benchmark::DoNotOptimize(
        dataset.column(data::AirQualityIndex::kOzone).quantile(0.5));
  }
}
BENCHMARK(BM_DatasetBuildAndFirstQuery)->Arg(100000);

// The station ingests one RankSampleSet per report.  The input here is
// sorted, as a node's report is, so construction is the linear
// sortedness scan and the copy of the values (rank validation is
// PRC_DCHECK-gated since the parallel-collection change).
void BM_RankSampleConstruct(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<sampling::RankedValue> values =
      make_sample(n, 0.5).samples();
  for (auto _ : state) {
    auto copy = values;
    sampling::RankSampleSet set(std::move(copy));
    benchmark::DoNotOptimize(set.size());
  }
}
BENCHMARK(BM_RankSampleConstruct)->Arg(1000)->Arg(10000);

// What every release-build ingest used to pay on top: the always-on
// duplicate-rank audit (hash-set insert per sample).  The gap between this
// and BM_RankSampleConstruct is the win from demoting the audit to
// PRC_DCHECK.
void BM_RankSampleConstructPlusAudit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<sampling::RankedValue> values =
      make_sample(n, 0.5).samples();
  for (auto _ : state) {
    auto copy = values;
    sampling::RankSampleSet set(std::move(copy));
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(set.size());
    bool ok = true;
    for (const auto& s : set.samples()) {
      ok = ok && s.rank != 0 && seen.insert(s.rank).second;
    }
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_RankSampleConstructPlusAudit)->Arg(1000)->Arg(10000);

void BM_CsvParse(benchmark::State& state) {
  data::CityPulseConfig config;
  config.record_count = 2000;
  const auto records = data::CityPulseGenerator(config).generate();
  CsvTable table({"timestamp", "sensor_id", "ozone", "particulate_matter",
                  "carbon_monoxide", "sulfur_dioxide", "nitrogen_dioxide"});
  for (const auto& r : records) {
    table.add_row({std::to_string(r.timestamp), std::to_string(r.sensor_id),
                   std::to_string(r.values[0]), std::to_string(r.values[1]),
                   std::to_string(r.values[2]), std::to_string(r.values[3]),
                   std::to_string(r.values[4])});
  }
  const std::string text = to_csv(table);
  for (auto _ : state) {
    benchmark::DoNotOptimize(parse_csv(text));
  }
}
BENCHMARK(BM_CsvParse);

}  // namespace

BENCHMARK_MAIN();
