// Closed-loop benchmark of the data broker: one client, one thread, one
// workload per process.
//
//   broker_bench --workload menu_market --seed 1 --seconds 20 --trace 0
//
// Each request waits for its receipt before the next one is drawn.  The
// timed phase is a fixed number of requests (--seconds times the
// workload's nominal rate), so one seed does the same work on every build.
// Its times are taken per block of requests, scaled to reference host speed
// (HostSpeed) and reported as the median over the blocks.
// The last line of stdout is one JSON object: the end-to-end metrics with
// --trace 0, the per-layer metrics with --trace 1 (an untraced half, a
// traced half and a probe phase).  Correctness checks run after the timed
// phase and outside its measurements.  README.md beside this file lists
// the workloads, the metrics and what each layer metric should move.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/args.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "data/citypulse.h"
#include "data/dataset.h"
#include "data/partition.h"
#include "dp/private_counting.h"
#include "estimator/rank_counting.h"
#include "iot/network.h"
#include "market/audit_log.h"
#include "market/broker.h"
#include "market/consumer.h"
#include "market/ledger.h"
#include "market/simulation.h"
#include "market/wal.h"
#include "pricing/arbitrage.h"
#include "pricing/pricing.h"
#include "query/workload.h"

namespace {

using namespace prc;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Taken during static initialization: the first set-up is timed from here.
const std::int64_t kProcessStartNs = now_ns();

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double to_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

// User + system CPU of the whole process (every thread it runs).
double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return to_seconds(usage.ru_utime) + to_seconds(usage.ru_stime);
}

// Peak resident set so far (ru_maxrss is in KiB on Linux).
double max_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const auto mid =
      values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  if (values.size() % 2 == 1) return *mid;
  const double upper = *mid;
  const double lower = *std::max_element(values.begin(), mid);
  return 0.5 * (lower + upper);
}

// Nearest-rank percentile of `values` (q in (0, 1]).
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const auto index = std::min(values.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

// ---------------------------------------------------------------------------
// Workloads

/// Consumer ids active at once; each request picks one uniformly.
constexpr std::size_t kConsumerSlots = 16;
/// The contract box bespoke requests are drawn from.
const market::SimulationConfig kContractBox;

struct Workload {
  std::string name;
  std::size_t records = 17568;
  std::size_t nodes = 8;
  iot::NetworkConfig network;
  /// Fixed contract menu; empty means a fresh (alpha, delta) per request
  /// drawn uniformly from the SimulationConfig box.
  std::vector<query::AccuracySpec> menu;
  /// Mix Example 4.1 attackers into the arriving consumers at the
  /// SimulationConfig ratio (2 of every 7).
  bool attackers = false;
  double epsilon_cap = std::numeric_limits<double>::infinity();
  market::DegradedSalePolicy policy = market::DegradedSalePolicy::kRefuse;
  bool wal = false;
  /// Requests after which a consumer leaves and a new id takes its slot
  /// (0 = consumers never leave).
  std::size_t requests_per_consumer = 0;
  /// Every `arrival_every` requests one node receives a new reading and
  /// the network resynchronizes (0 = static data).
  std::size_t arrival_every = 0;
  /// Every `tighten_every` requests one consumer asks for a contract a
  /// little stricter than any sold before (the strictest alpha so far times
  /// `tighten_ratio`, not below `tighten_floor`), so the station must raise
  /// its sampling probability: a collection round inside the timed phase
  /// (0 = never).
  std::size_t tighten_every = 0;
  double tighten_ratio = 1.0;
  double tighten_floor = 0.0;
  /// Untimed requests after the menu pass, part of set-up.
  std::size_t warmup_requests = 0;
  /// Requests per second the timed phase is sized at.
  double nominal_rate = 1000.0;
};

/// Set-ups per run; setup_s is their median.
constexpr std::size_t kSetups = 7;
/// Set-up units after each set-up (see HostSpeed).
constexpr std::size_t kSetupCalibrationUnits = 64;

Workload make_workload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "menu_market") {
    w.records = 100000;
    w.nodes = 128;
    w.menu = {{0.10, 0.50}, {0.08, 0.60}, {0.06, 0.70}, {0.05, 0.75},
              {0.04, 0.80}, {0.03, 0.85}, {0.02, 0.90}, {0.01, 0.95}};
    w.wal = true;
    w.nominal_rate = 22000.0;
  } else if (name == "bespoke_contracts") {
    w.attackers = true;
    w.epsilon_cap = 2.0;
    w.requests_per_consumer = 2560;
    w.warmup_requests = 5000;
    w.nominal_rate = 25000.0;
  } else if (name == "live_collection") {
    w.records = 100000;
    w.nodes = 32;
    w.network.frame_loss_probability = 0.1;
    w.network.byte_accurate = true;
    w.network.bit_corruption_probability = 0.05;
    w.network.max_attempts = 4;
    w.menu = {{0.10, 0.50}, {0.04, 0.75}, {0.02, 0.90}};
    w.policy = market::DegradedSalePolicy::kReprice;
    w.arrival_every = 20;
    w.tighten_every = 1000;
    w.tighten_ratio = 0.999;
    w.tighten_floor = 0.01;
    w.warmup_requests = 3000;
    w.nominal_rate = 38000.0;
  } else {
    throw std::invalid_argument("unknown workload '" + name +
                                "' (menu_market, bespoke_contracts, "
                                "live_collection)");
  }
  return w;
}

// ---------------------------------------------------------------------------
// One set-up: data, fleet, counter, broker, consumers

struct Consumer {
  std::string id;
  bool attacker = false;
  std::size_t requests = 0;
  std::unique_ptr<market::ArbitrageAttacker> strategy;  // attackers only
};

struct Request {
  std::size_t consumer = 0;
  query::AccuracySpec spec;
  std::size_t range = 0;
};

/// Outcomes of every purchase a world served, for the correctness checks.
struct Tally {
  std::uint64_t served = 0;
  /// Served purchases whose released value left [0, n].
  std::uint64_t out_of_domain = 0;
  /// Served purchases within alpha * n of the exact count, and the number
  /// the contracts promise (sum of delta).
  std::uint64_t accurate = 0;
  double promised = 0.0;
};

class World {
 public:
  World(const Workload& workload, std::uint64_t seed,
        const std::string& wal_path);
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  Request draw();
  /// Runs one purchase to completion.  Returns false when the broker
  /// refused it (budget cap or coverage).
  bool execute(const Request& request);
  /// Data arrival: after every `arrival_every` requests one node gets a
  /// new reading and the network resynchronizes.
  void maybe_arrive();

  const Workload& workload;
  std::unique_ptr<data::Dataset> dataset;
  std::vector<query::RangeQuery> ranges;
  /// Exact count of each range over all data, kept current on arrivals.
  std::vector<std::size_t> truth;
  std::optional<pricing::VarianceModel> model;
  std::unique_ptr<iot::FlatNetwork> network;
  std::unique_ptr<dp::PrivateRangeCounter> counter;
  std::unique_ptr<market::DataBroker> broker;
  std::optional<pricing::AttackSimulator> simulator;
  std::vector<Consumer> consumers;
  Tally tally;
  bool menu_arbitrage_free = false;
  std::string wal_path;
  double generate_ms = 0.0;
  double arbitrage_check_ms = 0.0;
  double initial_round_ms = 0.0;

 private:
  void admit_consumer(Consumer& slot);

  Rng requests_;
  Rng arrivals_;
  /// The strictest contract sold so far, tightened every `tighten_every`
  /// draws.
  query::AccuracySpec strictest_;
  std::size_t draws_ = 0;
  std::size_t next_consumer_ = 0;
  std::size_t since_arrival_ = 0;
  std::size_t arrival_count_ = 0;
};

World::World(const Workload& w, std::uint64_t seed,
             const std::string& wal_path_in)
    : workload(w),
      wal_path(wal_path_in),
      requests_(seed * 0x9e3779b97f4a7c15ull + 4),
      arrivals_(seed * 0x9e3779b97f4a7c15ull + 5) {
  auto start = now_ns();
  data::CityPulseConfig data_config;
  data_config.record_count = w.records;
  data_config.seed = seed;
  const auto records = data::CityPulseGenerator(data_config).generate();
  dataset = std::make_unique<data::Dataset>(records);
  generate_ms = seconds_since(start) * 1e3;

  const auto& column = dataset->column(data::AirQualityIndex::kOzone);
  ranges = query::default_evaluation_suite(column);
  for (const auto& range : ranges) {
    truth.push_back(column.exact_range_count(range.lower, range.upper));
  }
  Rng partition_rng(seed + 1);
  auto node_data =
      data::partition_values(column.values(), w.nodes,
                             data::PartitionStrategy::kRoundRobin,
                             partition_rng);
  iot::NetworkConfig network_config = w.network;
  network_config.seed = seed + 2;
  network = std::make_unique<iot::FlatNetwork>(std::move(node_data),
                                               network_config);
  model.emplace(column.size(), w.nodes);

  // The strictest contract the workload sells up front.
  strictest_ = {kContractBox.alpha_min, kContractBox.delta_max};
  if (!w.menu.empty()) {
    strictest_ = *std::min_element(
        w.menu.begin(), w.menu.end(),
        [](const query::AccuracySpec& a, const query::AccuracySpec& b) {
          return a.alpha < b.alpha;
        });
  }

  // The Theorem 4.2 menu (q = 1), validated before the broker opens over a
  // grid that covers every contract the workload sells.
  auto pricing = std::make_unique<pricing::InverseVariancePricing>(
      *model, query::AccuracySpec{0.1, 0.5}, 100.0, 1.0);
  pricing::ArbitrageChecker::Grid grid;
  grid.alpha_min = w.tighten_every != 0 ? w.tighten_floor
                                        : strictest_.alpha.value();
  grid.delta_max = kContractBox.delta_max;
  for (const auto& spec : w.menu) {
    grid.delta_max = std::max(grid.delta_max, spec.delta);
  }
  start = now_ns();
  menu_arbitrage_free = pricing::ArbitrageChecker(*model, grid)
                            .check(*pricing)
                            .arbitrage_avoiding;
  arbitrage_check_ms = seconds_since(start) * 1e3;

  counter = std::make_unique<dp::PrivateRangeCounter>(
      *network, dp::PrivateCounterConfig{}, seed + 3);
  market::BrokerConfig broker_config;
  broker_config.per_consumer_epsilon_cap = w.epsilon_cap;
  broker_config.degraded_policy = w.policy;
  broker = std::make_unique<market::DataBroker>(*counter, std::move(pricing),
                                                broker_config);
  if (w.wal) {
    std::filesystem::remove(wal_path);
    broker->attach_wal(wal_path);
  }
  simulator.emplace(*model);
  consumers.resize(kConsumerSlots);
  for (auto& slot : consumers) admit_consumer(slot);
  // Stagger the first generation's lifetimes, so that consumers reach the
  // cap and leave at different times and every stretch of requests sees
  // the same share of refusals.
  for (std::size_t i = 0; i < consumers.size(); ++i) {
    consumers[i].requests = i * w.requests_per_consumer / consumers.size();
  }

  // One collection round at the strictest contract the workload sells.
  std::vector<query::AccuracySpec> strict = w.menu;
  strict.push_back(strictest_);
  double target_p = 0.0;
  for (const auto& spec : strict) {
    target_p = std::max<double>(target_p,
                                counter->plan_for(spec).sampling_probability);
  }
  // On lossy links a frame can be dropped for good; nudging the target up
  // by a hair re-polls the fleet, so every seed starts the timed phase from
  // a complete cache instead of an escalated or degraded one.
  start = now_ns();
  network->ensure_sampling_probability(target_p);
  for (int retry = 1;
       retry <= 8 && !network->base_station().coverage().complete();
       ++retry) {
    network->ensure_sampling_probability(
        std::min(1.0, target_p * (1.0 + 1e-3 * retry)));
  }
  initial_round_ms = seconds_since(start) * 1e3;

  // Warm-up: one pass over the menu, then the workload's own requests.
  for (std::size_t i = 0; i < w.menu.size(); ++i) {
    execute(Request{i % consumers.size(), w.menu[i], i % ranges.size()});
  }
  for (std::size_t i = 0; i < w.warmup_requests; ++i) {
    execute(draw());
    maybe_arrive();
  }
}

void World::admit_consumer(Consumer& slot) {
  slot.id = "consumer-" + std::to_string(next_consumer_);
  slot.requests = 0;
  // A fixed interleave, not a coin flip, so every seed sees the same mix.
  const std::size_t population =
      kContractBox.honest_consumers + kContractBox.attackers;
  slot.attacker = workload.attackers &&
                  next_consumer_ % population < kContractBox.attackers;
  ++next_consumer_;
  slot.strategy.reset();
  if (slot.attacker) {
    slot.strategy = std::make_unique<market::ArbitrageAttacker>(
        slot.id, *broker, *simulator);
  }
}

Request World::draw() {
  Request request;
  request.consumer = static_cast<std::size_t>(requests_.uniform_int(
      0, static_cast<std::int64_t>(consumers.size()) - 1));
  Consumer& consumer = consumers[request.consumer];
  if (workload.requests_per_consumer != 0 &&
      consumer.requests == workload.requests_per_consumer) {
    admit_consumer(consumer);
  }
  ++consumer.requests;
  if (workload.tighten_every != 0 && ++draws_ % workload.tighten_every == 0) {
    strictest_.alpha = std::max(workload.tighten_floor,
                                strictest_.alpha * workload.tighten_ratio);
    request.spec = strictest_;
  } else if (workload.menu.empty()) {
    request.spec = {
        requests_.uniform(kContractBox.alpha_min, kContractBox.alpha_max),
        requests_.uniform(kContractBox.delta_min, kContractBox.delta_max)};
  } else {
    request.spec = workload.menu[static_cast<std::size_t>(
        requests_.uniform_int(
            0, static_cast<std::int64_t>(workload.menu.size()) - 1))];
  }
  request.range = static_cast<std::size_t>(requests_.uniform_int(
      0, static_cast<std::int64_t>(ranges.size()) - 1));
  return request;
}

bool World::execute(const Request& request) {
  PRC_TRACE_SPAN("bench.request");
  const Consumer& consumer = consumers[request.consumer];
  const query::RangeQuery& range = ranges[request.range];
  double value = 0.0;
  query::AccuracySpec held;  // the contract the consumer ends up holding
  try {
    if (consumer.attacker) {
      pricing::AttackResult plan;
      {
        PRC_TRACE_SPAN("bench.best_attack");
        plan = simulator->best_attack(broker->pricing(), request.spec);
      }
      value = consumer.strategy->acquire(range, request.spec, plan).answer;
      held = request.spec;
    } else {
      const auto receipt = broker->sell(consumer.id, range, request.spec);
      value = receipt.value;
      held = receipt.spec;
    }
  } catch (const market::BudgetExceededError&) {
    return false;
  } catch (const market::InsufficientCoverageError&) {
    return false;
  }
  ++tally.served;
  const double n = static_cast<double>(network->total_data_count());
  if (!(value >= 0.0 && value <= n)) ++tally.out_of_domain;
  const double exact = static_cast<double>(truth[request.range]);
  if (std::abs(value - exact) <= held.alpha * n) ++tally.accurate;
  tally.promised += held.delta;
  return true;
}

void World::maybe_arrive() {
  if (workload.arrival_every == 0) return;
  if (++since_arrival_ < workload.arrival_every) return;
  since_arrival_ = 0;
  // A new reading is an existing value of the column, so the value
  // distribution stays that of the generator.
  const auto& pool = dataset->column(data::AirQualityIndex::kOzone).values();
  const double reading = pool[static_cast<std::size_t>(arrivals_.uniform_int(
      0, static_cast<std::int64_t>(pool.size()) - 1))];
  for (std::size_t q = 0; q < ranges.size(); ++q) {
    if (ranges[q].contains(reading)) ++truth[q];
  }
  const std::size_t node = arrival_count_++ % workload.nodes;
  {
    PRC_TRACE_SPAN("bench.append");
    network->append_data(node, {reading});
  }
  PRC_TRACE_SPAN("bench.refresh");
  network->refresh_samples();
}

// ---------------------------------------------------------------------------
// Measurement

/// Library and broker counters, captured at phase boundaries.
struct Counters {
  std::uint64_t plan_hits = 0, plan_misses = 0;
  std::uint64_t quote_hits = 0, quote_misses = 0;
  std::uint64_t price_evals = 0;
  std::uint64_t optimize_calls = 0, grid_evaluations = 0;
  std::uint64_t rounds = 0, rounds_noop = 0;
  std::uint64_t audit_events = 0, wal_bytes = 0;
  std::uint64_t degraded_sales = 0, sales = 0;
  double ledger_epsilon = 0.0;
  iot::CommunicationStats network;
};

Counters capture(const World& world) {
  auto& registry = telemetry::Telemetry::registry();
  Counters c;
  c.plan_hits = registry.counter("dp.plan_cache_hits").value();
  c.plan_misses = registry.counter("dp.plan_cache_misses").value();
  c.quote_hits = registry.counter("pricing.quote_cache_hits").value();
  c.quote_misses = registry.counter("pricing.quote_cache_misses").value();
  c.price_evals = registry.counter("pricing.quotes").value();
  c.optimize_calls = registry.counter("dp.optimize_calls").value();
  c.grid_evaluations = registry.counter("dp.grid_evaluations").value();
  c.rounds = registry.counter("iot.rounds").value();
  c.rounds_noop = registry.counter("iot.rounds_noop").value();
  c.audit_events = world.broker->audit_log().size();
  const auto* wal = world.broker->write_ahead_log();
  c.wal_bytes = wal != nullptr ? wal->bytes_appended() : 0;
  c.degraded_sales = world.broker->ledger().degraded_sales();
  c.sales = world.broker->ledger().transaction_count();
  c.ledger_epsilon = world.broker->ledger().total_epsilon();
  c.network = world.network->stats();
  return c;
}

struct LayerTime {
  std::int64_t self_ns = 0;
  std::int64_t total_ns = 0;
  std::uint64_t spans = 0;
};

/// Folds the tracer's ring into per-name self and total times.  Drained
/// between requests, so every span in the ring is closed and its children
/// (which complete first) are already folded.
class SpanAggregator {
 public:
  void drain() {
    auto& tracer = trace::Tracer::instance();
    dropped_ += tracer.dropped();
    const auto spans = tracer.snapshot();
    tracer.clear();
    for (const auto& span : spans) {
      std::int64_t children = 0;
      if (const auto it = child_ns_.find(span.id); it != child_ns_.end()) {
        children = it->second;
        child_ns_.erase(it);
      }
      auto& layer = layers_[span.name];
      layer.self_ns += span.duration_ns - children;
      layer.total_ns += span.duration_ns;
      ++layer.spans;
      if (span.parent_id != 0) child_ns_[span.parent_id] += span.duration_ns;
    }
  }

  LayerTime layer(const std::string& name) const {
    const auto it = layers_.find(name);
    return it == layers_.end() ? LayerTime{} : it->second;
  }
  /// Mean self time per span of `name`, in microseconds (0 when absent).
  double self_us(const std::string& name) const {
    const auto l = layer(name);
    return l.spans == 0 ? 0.0
                        : static_cast<double>(l.self_ns) * 1e-3 /
                              static_cast<double>(l.spans);
  }
  std::int64_t self_sum_ns() const {
    std::int64_t sum = 0;
    for (const auto& [name, l] : layers_) sum += l.self_ns;
    return sum;
  }
  std::uint64_t dropped() const { return dropped_; }
  const std::map<std::string, LayerTime>& layers() const { return layers_; }

 private:
  std::map<std::string, LayerTime> layers_;
  std::unordered_map<std::uint64_t, std::int64_t> child_ns_;
  std::uint64_t dropped_ = 0;
};

struct Phase {
  std::uint64_t attempted = 0;
  std::uint64_t served = 0;
  /// Served purchases whose released value left [0, n].
  std::uint64_t out_of_domain = 0;
  std::vector<double> latency_us;  // served purchases only
  /// Per block of requests: wall and CPU microseconds per served purchase
  /// and the block's p50 and p99 latency, all at reference host speed, and
  /// the factor that scaled them (see HostSpeed).
  std::vector<double> block_wall_us, block_cpu_us, block_p50_us, block_p99_us;
  std::vector<double> block_scale;
  std::size_t block_requests = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double system_s = 0.0;
  std::uint64_t page_faults = 0;  // minor faults: first touches of new pages
  /// Time spent folding spans or calibrating, left out of the times above.
  double excluded_wall_s = 0.0;
  double excluded_cpu_s = 0.0;
  double rss_growth_mb = 0.0;
  double peak_rss_mb = 0.0;
  Counters before, after;
};

constexpr std::size_t kDrainEvery = 256;
/// Blocks a timed phase is cut into.  Throughput, CPU time and latency are
/// taken per block and reported as the median over the blocks, so a burst
/// of interference that slows some blocks does not move them.
constexpr std::size_t kBlocks = 100;
/// Requests between two calibration units of the timed phase.
constexpr std::size_t kCalibrateEvery = 32;

/// Host speed, measured by a fixed calibration unit that runs between the
/// requests.  On a virtual machine whose hardware threads share cores with
/// other tenants, a busy neighbour on the sibling thread slows
/// high-throughput code by up to 2x for seconds at a time, while a
/// latency-bound arithmetic loop barely moves.  The unit does the kinds of
/// work a request is made of: it allocates and copies 32 small vectors
/// (the shape of the station cache a sale copies into its EstimateSnapshot),
/// sums a 16 KiB array that stays in the L1 cache, and sorts 512 random
/// doubles (the shape of LocalSampler::append re-sorting a node's data).
/// It runs once every kCalibrateEvery requests, so it sees the same
/// neighbours as the requests around it, and a block's times are scaled by
/// kReferenceUnitUs / (mean unit time in the block): they are reported at
/// the host speed at which one unit takes kReferenceUnitUs, about its mean
/// time between requests on a 4-vCPU Xeon virtual machine.
/// A set-up is mostly data generation, floating-point work that slows less
/// than a request does, so set-ups are scaled by a unit that adds sin and
/// fmod over 2000 values to the request unit.
class HostSpeed {
 public:
  static constexpr double kReferenceUnitUs = 40.0;
  static constexpr double kReferenceSetupUnitUs = 170.0;

  HostSpeed() : words_(4096, 1), keys_(kSortKeys) {}

  /// Runs one calibration unit and returns its wall time in microseconds.
  double unit_us() {
    const std::int64_t start = now_ns();
    std::vector<std::vector<double>> nodes;
    nodes.reserve(kNodes);
    for (std::size_t k = 0; k < kNodes; ++k) {
      nodes.emplace_back(kSamplesPerNode, static_cast<double>(k + sink_ % 2));
    }
    const std::vector<std::vector<double>> copy(nodes);
    escape(copy.data());
    std::uint64_t sum = static_cast<std::uint64_t>(copy[sink_ % kNodes][1]);
    for (std::uint32_t pass = 0; pass < kPasses; ++pass) {
      for (const std::uint32_t word : words_) sum += word ^ pass;
    }
    std::uint64_t state = ++draws_;
    for (double& key : keys_) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      key = static_cast<double>(state >> 11);
    }
    std::sort(keys_.begin(), keys_.end());
    sink_ += sum + static_cast<std::uint64_t>(keys_[sink_ % kSortKeys]);
    escape(&sink_);
    return static_cast<double>(now_ns() - start) * 1e-3;
  }

  /// Factor that scales a set-up timed just before to reference host
  /// speed, from `units` set-up units.
  double setup_scale(std::size_t units) {
    double total_us = 0.0;
    for (std::size_t i = 0; i < units; ++i) {
      const std::int64_t start = now_ns();
      unit_us();
      double level = 0.0;
      for (std::size_t step = 0; step < kMathSteps; ++step) {
        const double t = static_cast<double>(step + sink_ % 2);
        level += std::sin(t * 1e-3) * std::fmod(t * 1.7, 3.1);
      }
      escape(&level);
      total_us += static_cast<double>(now_ns() - start) * 1e-3;
    }
    return kReferenceSetupUnitUs * static_cast<double>(units) / total_us;
  }

 private:
  /// Makes the memory behind `p` observable, so the unit's work is kept.
  static void escape(const void* p) { asm volatile("" : : "g"(p) : "memory"); }

  static constexpr std::size_t kNodes = 32;
  static constexpr std::size_t kSamplesPerNode = 223;
  static constexpr std::uint32_t kPasses = 4;
  static constexpr std::size_t kSortKeys = 512;
  static constexpr std::size_t kMathSteps = 2000;
  std::vector<std::uint32_t> words_;
  std::vector<double> keys_;
  std::uint64_t draws_ = 0;
  std::uint64_t sink_ = 0;
};

/// Requests per block: about requests / kBlocks, rounded up to a whole
/// number of data-arrival and tightening periods so that every block does
/// the same mix of work.
std::size_t block_size(const Workload& w, std::size_t requests) {
  const std::size_t period =
      std::lcm(std::max<std::size_t>(1, w.arrival_every),
               std::max<std::size_t>(1, w.tighten_every));
  const std::size_t target = (requests + kBlocks - 1) / kBlocks;
  return period * ((target + period - 1) / period);
}

/// Runs `requests` purchases back to back.  With `spans`, the tracer is on
/// and its ring is folded every kDrainEvery requests; without, a
/// calibration unit runs every kCalibrateEvery requests.  The time spent
/// folding or calibrating is measured and excluded from the phase's and the
/// blocks' wall and CPU time.
Phase run_phase(World& world, std::size_t requests, SpanAggregator* spans) {
  Phase phase;
  phase.latency_us.reserve(requests);
  phase.block_requests = block_size(world.workload, requests);
  // Per block: excluded time, calibration units and served purchases.
  double block_excluded_wall_s = 0.0, block_excluded_cpu_s = 0.0;
  double block_unit_us = 0.0;
  std::size_t block_units = 0;
  std::uint64_t block_served = 0;
  const auto excluded = [&](auto&& body) {
    const std::int64_t start = now_ns();
    const double cpu = cpu_seconds();
    body();
    const double cpu_s = cpu_seconds() - cpu;
    const double wall_s = seconds_since(start);
    phase.excluded_cpu_s += cpu_s;
    phase.excluded_wall_s += wall_s;
    block_excluded_cpu_s += cpu_s;
    block_excluded_wall_s += wall_s;
  };
  HostSpeed host;
  const auto calibrate = [&] {
    excluded([&] { block_unit_us += host.unit_us(); });
    ++block_units;
  };
  const double rss_start = max_rss_mb();
  phase.before = capture(world);
  const Tally tally_start = world.tally;
  rusage usage_start{};
  getrusage(RUSAGE_SELF, &usage_start);
  const std::int64_t phase_start = now_ns();
  const double phase_cpu = cpu_seconds();
  std::int64_t block_start = phase_start;
  double block_cpu = phase_cpu;
  std::size_t block_first = 0;  // index of the block's first latency
  const auto close_block = [&] {
    if (block_units == 0) calibrate();  // a block shorter than one interval
    const double wall_us =
        static_cast<double>(now_ns() - block_start) * 1e-3 -
        block_excluded_wall_s * 1e6;
    const double cpu_us =
        (cpu_seconds() - block_cpu - block_excluded_cpu_s) * 1e6;
    const double scale = HostSpeed::kReferenceUnitUs *
                         static_cast<double>(block_units) / block_unit_us;
    const std::vector<double> block(
        phase.latency_us.begin() + static_cast<std::ptrdiff_t>(block_first),
        phase.latency_us.end());
    const auto served = static_cast<double>(block_served);
    phase.block_wall_us.push_back(scale * ratio(wall_us, served));
    phase.block_cpu_us.push_back(scale * ratio(cpu_us, served));
    phase.block_p50_us.push_back(scale * percentile(block, 0.50));
    phase.block_p99_us.push_back(scale * percentile(block, 0.99));
    phase.block_scale.push_back(scale);
    block_first = phase.latency_us.size();
    block_excluded_wall_s = block_excluded_cpu_s = block_unit_us = 0.0;
    block_units = 0;
    block_served = 0;
    block_start = now_ns();  // the bookkeeping above is in no block
    block_cpu = cpu_seconds();
  };
  // A calibration unit evicts part of the caches, so the request right
  // after one is timed into its block but left out of the latency samples.
  bool after_unit = false;
  for (std::size_t i = 0; i < requests; ++i) {
    const Request request = world.draw();
    const std::int64_t t0 = now_ns();
    const bool served = world.execute(request);
    const std::int64_t t1 = now_ns();
    if (served) {
      ++block_served;
      if (!after_unit) {
        phase.latency_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      }
    }
    after_unit = false;
    world.maybe_arrive();
    if (spans != nullptr) {
      if ((i + 1) % kDrainEvery == 0) excluded([&] { spans->drain(); });
      continue;
    }
    if ((i + 1) % kCalibrateEvery == 0) {
      calibrate();
      after_unit = true;
    }
    if ((i + 1) % phase.block_requests == 0) close_block();
  }
  // A phase shorter than one block is measured as one partial block.
  if (spans == nullptr && phase.block_wall_us.empty()) close_block();
  if (phase.latency_us.empty()) {
    throw std::runtime_error("the timed phase served no purchase");
  }
  if (spans != nullptr) excluded([&] { spans->drain(); });
  phase.wall_s = seconds_since(phase_start) - phase.excluded_wall_s;
  phase.cpu_s = cpu_seconds() - phase_cpu - phase.excluded_cpu_s;
  rusage usage_end{};
  getrusage(RUSAGE_SELF, &usage_end);
  phase.system_s =
      to_seconds(usage_end.ru_stime) - to_seconds(usage_start.ru_stime);
  phase.page_faults =
      static_cast<std::uint64_t>(usage_end.ru_minflt - usage_start.ru_minflt);
  phase.peak_rss_mb = max_rss_mb();
  phase.rss_growth_mb = phase.peak_rss_mb - rss_start;
  phase.after = capture(world);
  phase.attempted = requests;
  phase.served = world.tally.served - tally_start.served;
  phase.out_of_domain = world.tally.out_of_domain - tally_start.out_of_domain;
  return phase;
}

// ---------------------------------------------------------------------------
// Probes: public calls timed on the final state with the workload's inputs

/// Mean microseconds per call of `body`, repeated for about `budget_s`.
template <typename Body>
double probe_us(double budget_s, Body&& body) {
  std::size_t calls = 0;
  const std::int64_t start = now_ns();
  do {
    body(calls++);
  } while (seconds_since(start) < budget_s);
  return seconds_since(start) * 1e6 / static_cast<double>(calls);
}

constexpr double kProbeSeconds = 0.2;

struct Probes {
  double estimate_us = 0.0;
  double station_estimate_us = 0.0;
  double audit_append_us = 0.0;
  double wal_append_us = 0.0;
};

Probes run_probes(World& world, const std::string& scratch_wal) {
  Probes probes;
  const auto& station = world.network->base_station();
  const auto views = station.node_views();
  const auto probabilities = station.node_probabilities();
  double sink = 0.0;
  probes.estimate_us = probe_us(kProbeSeconds, [&](std::size_t i) {
    sink += estimator::rank_counting_estimate(
        views, probabilities, world.ranges[i % world.ranges.size()]);
  });
  probes.station_estimate_us = probe_us(kProbeSeconds, [&](std::size_t i) {
    sink += world.network->rank_counting_estimate(
        world.ranges[i % world.ranges.size()]);
  });
  if (!std::isfinite(sink)) throw std::runtime_error("estimate not finite");

  // Requests the workload itself would send, drawn up front.
  std::vector<Request> shapes;
  for (std::size_t i = 0; i < 256; ++i) shapes.push_back(world.draw());
  const auto shape = [&](std::size_t i) -> const Request& {
    return shapes[i % shapes.size()];
  };
  market::AuditLog scratch_audit;
  probes.audit_append_us = probe_us(kProbeSeconds, [&](std::size_t i) {
    const Request& r = shape(i);
    market::AuditEvent event;
    event.type = market::AuditEventType::kMint;
    event.consumer_id = world.consumers[r.consumer].id;
    event.lower = world.ranges[r.range].lower;
    event.upper = world.ranges[r.range].upper;
    event.alpha = r.spec.alpha;
    event.delta = r.spec.delta;
    event.epsilon = 0.01;
    event.detail = "final plan admitted; noise draw follows";
    scratch_audit.append_event(std::move(event));
  });

  if (world.workload.wal) {
    std::filesystem::remove(scratch_wal);
    {
      auto log = market::wal::WriteAheadLog::open(scratch_wal);
      probes.wal_append_us = probe_us(kProbeSeconds, [&](std::size_t i) {
        const Request& r = shape(i);
        market::wal::IntentRecord intent;
        intent.consumer_id = world.consumers[r.consumer].id;
        intent.range = world.ranges[r.range];
        intent.spec = r.spec;
        intent.epsilon_amplified = 0.01;
        market::wal::CommitRecord commit;
        commit.intent_sequence = log->append_intent(std::move(intent));
        commit.transaction.sequence = i;
        commit.transaction.consumer_id = world.consumers[r.consumer].id;
        commit.transaction.range = world.ranges[r.range];
        commit.transaction.spec = r.spec;
        commit.transaction.price = 1.0;
        commit.transaction.epsilon_amplified = 0.01;
        log->append_commit(std::move(commit));
      });
    }
    std::filesystem::remove(scratch_wal);
  }
  return probes;
}

// ---------------------------------------------------------------------------
// Correctness checks (after the timed phase, outside its measurements)

struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

std::vector<Check> run_checks(World& world) {
  std::vector<Check> checks;
  const auto& ledger = world.broker->ledger();
  checks.push_back({"menu_arbitrage_free", world.menu_arbitrage_free,
                    "Theorem 4.2 grid check of the pricing menu"});

  const auto reconciliation = world.broker->audit_log().reconcile(ledger);
  checks.push_back({"audit_reconcile", reconciliation.consistent,
                    reconciliation.to_string()});

  const double tolerance =
      1e-9 * (1.0 + ledger.total_epsilon() + ledger.total_revenue());
  const double discrepancy = ledger.conservation_discrepancy();
  checks.push_back({"ledger_conservation", discrepancy <= tolerance,
                    "discrepancy " + std::to_string(discrepancy)});

  if (world.workload.wal) {
    const auto recovery = market::wal::read_wal(world.wal_path);
    market::Ledger replayed;
    market::wal::apply_recovery(replayed, recovery);
    const double live = ledger.total_epsilon();
    const double gap = std::abs(replayed.total_epsilon() - live);
    checks.push_back(
        {"wal_replay",
         gap <= 1e-9 * (1.0 + live) && recovery.orphans.empty() &&
             recovery.stats.truncated_bytes == 0,
         "replayed epsilon " + std::to_string(replayed.total_epsilon()) +
             " live " + std::to_string(live) + ", " +
             std::to_string(recovery.stats.records_read) + " records"});
  }

  // Every sale's price is the menu's quote for the contract it delivered.
  std::uint64_t priced = 0, mispriced = 0;
  std::map<std::pair<double, double>, double> quotes;
  for (const auto& transaction : ledger.transactions_snapshot()) {
    const auto key = std::make_pair(transaction.spec.alpha.value(),
                                    transaction.spec.delta.value());
    auto it = quotes.find(key);
    if (it == quotes.end()) {
      it = quotes.emplace(key, world.broker->quote(transaction.spec)).first;
    }
    ++priced;
    if (!(transaction.price > 0.0) || transaction.price != it->second) {
      ++mispriced;
    }
  }
  checks.push_back({"receipt_prices", priced > 0 && mispriced == 0,
                    std::to_string(priced) + " sales, " +
                        std::to_string(mispriced) + " mispriced"});

  const Tally& t = world.tally;
  checks.push_back({"released_values_in_domain", t.out_of_domain == 0,
                    std::to_string(t.out_of_domain) + " of " +
                        std::to_string(t.served) + " outside [0, n]"});

  // Hoeffding slack: below it with probability < 1e-6 if every purchase
  // met its contract with probability delta independently.
  const double slack =
      std::sqrt(static_cast<double>(t.served) * std::log(1e6) / 2.0);
  std::ostringstream accuracy;
  accuracy << t.accurate << " of " << t.served
           << " within alpha*n; promised sum(delta) " << t.promised
           << ", slack " << slack;
  checks.push_back({"contract_accuracy",
                    t.served > 0 &&
                        static_cast<double>(t.accurate) >= t.promised - slack,
                    accuracy.str()});
  return checks;
}

// ---------------------------------------------------------------------------
// Output

class MetricWriter {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    entries_.push_back({name, value, unit});
  }
  void print_table() const {
    for (const auto& e : entries_) {
      std::printf("  %-34s %16.6g %s\n", e.name.c_str(), e.value,
                  e.unit.c_str());
    }
  }
  std::string json() const {
    std::ostringstream out;
    out.precision(17);
    out << "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const auto& e = entries_[i];
      out << (i == 0 ? "" : ", ") << "\"" << e.name << "\": {\"value\": "
          << e.value << ", \"unit\": \"" << e.unit << "\"}";
    }
    out << "}";
    return out.str();
  }

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries_;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";
};

Options parse(int argc, char** argv) {
  ArgParser parser(argv[0], "closed-loop broker benchmark (one workload)");
  parser.option("workload", "menu_market | bespoke_contracts | live_collection")
      .option("seed", "workload seed (data, contracts, ranges, arrivals)")
      .option("seconds", "timed phase length at the workload's nominal rate")
      .option("trace", "0: end-to-end metrics, 1: per-layer metrics")
      .option("workdir", "directory for the write-ahead log files");
  if (!parser.parse(argc, argv)) std::exit(0);
  Options options;
  options.workload = parser.get_or("workload", "");
  options.seed = parser.get_uint("seed", options.seed);
  options.seconds = parser.get_double("seconds", options.seconds);
  options.trace = parser.get_uint("trace", 0) != 0;
  options.workdir = parser.get_or("workdir", ".");
  if (!(options.seconds > 0.0)) {
    throw std::invalid_argument("--seconds must be positive");
  }
  return options;
}

int run(const Options& options) {
  // Steadiness controls: one thread, no tracing outside the traced half,
  // no metrics server.
  parallel::set_thread_count(1);
  trace::Tracer::instance().set_enabled(false);

  const Workload workload = make_workload(options.workload);
  const std::string wal_path = options.workdir + "/" + workload.name + ".wal";
  const std::size_t requests = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::llround(options.seconds * workload.nominal_rate)));
  std::printf("workload %s, seed %llu: closed loop, 1 client, 1 thread; "
              "%zu timed requests; wal %s\n",
              workload.name.c_str(),
              static_cast<unsigned long long>(options.seed), requests,
              workload.wal ? "process-durable (no fsync)" : "off");

  // Set-up, several times; the last world is the one measured.  Each
  // set-up time is scaled to reference host speed by set-up units run right
  // after it.
  std::unique_ptr<World> world;
  std::vector<double> setup_s, generate_ms, round_ms, check_ms;
  HostSpeed host;
  for (std::size_t i = 0; i < kSetups; ++i) {
    world.reset();
    const std::int64_t start = i == 0 ? kProcessStartNs : now_ns();
    world = std::make_unique<World>(workload, options.seed, wal_path);
    const double elapsed = seconds_since(start);
    setup_s.push_back(elapsed * host.setup_scale(kSetupCalibrationUnits));
    generate_ms.push_back(world->generate_ms);
    round_ms.push_back(world->initial_round_ms);
    check_ms.push_back(world->arbitrage_check_ms);
  }
  std::printf("set-up: %zu runs, median %.4f s; %zu cached samples, n %zu, "
              "%zu nodes\n",
              setup_s.size(), median(setup_s),
              world->network->base_station().cached_sample_count(),
              world->network->total_data_count(), workload.nodes);

  MetricWriter metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t spans_dropped = 0;
  if (!options.trace) {
    const Phase phase = run_phase(*world, requests, nullptr);
    attempted = phase.attempted;
    failed = phase.out_of_domain;
    const auto served = static_cast<double>(phase.served);
    const double wall_us = median(phase.block_wall_us);
    const double cpu_us = median(phase.block_cpu_us);
    const double p50 = median(phase.block_p50_us);
    const double p99 = median(phase.block_p99_us);
    std::printf("timed: %llu requests, %llu served, %.3f s wall, %.3f s cpu "
                "(%.3f s system, %llu page faults); whole phase: wall/cpu per "
                "purchase %.1f/%.1f us\n",
                static_cast<unsigned long long>(phase.attempted),
                static_cast<unsigned long long>(phase.served), phase.wall_s,
                phase.cpu_s, phase.system_s,
                static_cast<unsigned long long>(phase.page_faults),
                ratio(phase.wall_s * 1e6, served),
                ratio(phase.cpu_s * 1e6, served));
    std::printf("median of %zu blocks of %zu requests at reference "
                "host speed: wall/cpu per purchase %.1f/%.1f us, p50 %.1f us, "
                "p99 %.1f us (%zu served purchases in all); host speed "
                "scale median %.3f, range %.3f-%.3f\n",
                phase.block_wall_us.size(), phase.block_requests, wall_us,
                cpu_us, p50, p99, phase.latency_us.size(),
                median(phase.block_scale),
                *std::min_element(phase.block_scale.begin(),
                                  phase.block_scale.end()),
                *std::max_element(phase.block_scale.begin(),
                                  phase.block_scale.end()));
    metrics.add("setup_s", median(setup_s), "s");
    metrics.add("purchases_per_s", ratio(1e6, wall_us), "1/s");
    metrics.add("cpu_us_per_purchase", cpu_us, "us");
    metrics.add("purchase_p50_us", p50, "us");
    metrics.add("purchase_p99_us", p99, "us");
    metrics.add("peak_rss_mb", phase.peak_rss_mb, "MB");
    metrics.add("uplink_bytes_per_purchase",
                ratio(static_cast<double>(phase.after.network.uplink_bytes),
                      served),
                "bytes");
    metrics.add("epsilon_per_purchase",
                ratio(phase.after.ledger_epsilon - phase.before.ledger_epsilon,
                      served),
                "eps");
    metrics.add("sold_share", ratio(served, static_cast<double>(attempted)),
                "share");
  } else {
    const std::size_t half = std::max<std::size_t>(1, requests / 2);
    const Phase plain = run_phase(*world, half, nullptr);
    auto& tracer = trace::Tracer::instance();
    tracer.clear();
    tracer.set_capacity(std::size_t{1} << 18);
    tracer.set_enabled(true);
    SpanAggregator spans;
    const Phase traced = run_phase(*world, half, &spans);
    tracer.set_enabled(false);
    attempted = plain.attempted + traced.attempted;
    failed = plain.out_of_domain + traced.out_of_domain;
    spans_dropped = spans.dropped();
    const Probes probes = run_probes(
        *world, options.workdir + "/" + workload.name + ".probe.wal");

    const auto served = static_cast<double>(traced.served);
    const Counters& a = traced.after;
    const Counters& b = traced.before;
    const auto delta = [](std::uint64_t after, std::uint64_t before) {
      return static_cast<double>(after - before);
    };
    const double frames =
        delta(a.network.frames_attempted, b.network.frames_attempted);
    const double plain_cpu =
        ratio(plain.cpu_s, static_cast<double>(plain.served));
    const double traced_cpu = ratio(traced.cpu_s, served);
    const double sells =
        static_cast<double>(spans.layer("market.sell").spans);
    std::printf("traced: %llu requests (%llu served) after %llu untraced; "
                "%.3f s traced wall, %.3f s folding spans; %llu spans "
                "dropped\n",
                static_cast<unsigned long long>(traced.attempted),
                static_cast<unsigned long long>(traced.served),
                static_cast<unsigned long long>(plain.attempted),
                traced.wall_s, traced.excluded_wall_s,
                static_cast<unsigned long long>(spans.dropped()));
    std::printf("span self times (name: spans, mean self us, mean total us)\n");
    for (const auto& [name, l] : spans.layers()) {
      std::printf("  %-26s %10llu %12.3f %12.3f\n", name.c_str(),
                  static_cast<unsigned long long>(l.spans),
                  static_cast<double>(l.self_ns) * 1e-3 /
                      static_cast<double>(l.spans),
                  static_cast<double>(l.total_ns) * 1e-3 /
                      static_cast<double>(l.spans));
    }
    metrics.add("market.sell_self_us", spans.self_us("market.sell"), "us");
    metrics.add("market.wal_append_us", probes.wal_append_us, "us");
    metrics.add("market.wal_bytes_per_purchase",
                ratio(delta(a.wal_bytes, b.wal_bytes), served), "bytes");
    metrics.add("market.audit_append_us", probes.audit_append_us, "us");
    metrics.add("market.audit_events_per_purchase",
                ratio(delta(a.audit_events, b.audit_events), served), "count");
    metrics.add("market.retained_bytes_per_purchase",
                ratio(traced.rss_growth_mb * 1048576.0, served), "bytes");
    metrics.add("market.refusal_share",
                ratio(static_cast<double>(traced.attempted) - served,
                      static_cast<double>(traced.attempted)),
                "share");
    metrics.add("market.degraded_share",
                ratio(delta(a.degraded_sales, b.degraded_sales),
                      delta(a.sales, b.sales)),
                "share");
    metrics.add("dp.answer_self_us", spans.self_us("dp.answer"), "us");
    metrics.add("dp.plan_self_us", spans.self_us("dp.ensure_feasible_plan"),
                "us");
    metrics.add("dp.optimize_us", spans.self_us("dp.optimize"), "us");
    metrics.add("dp.optimize_calls_per_purchase",
                ratio(delta(a.optimize_calls, b.optimize_calls), served),
                "count");
    metrics.add("dp.plan_cache_hit_ratio",
                ratio(delta(a.plan_hits, b.plan_hits),
                      delta(a.plan_hits, b.plan_hits) +
                          delta(a.plan_misses, b.plan_misses)),
                "share");
    metrics.add("dp.grid_evaluations_per_purchase",
                ratio(delta(a.grid_evaluations, b.grid_evaluations), served),
                "count");
    metrics.add("estimator.estimate_us", probes.estimate_us, "us");
    metrics.add("estimator.station_estimate_us", probes.station_estimate_us,
                "us");
    metrics.add("estimator.cached_samples",
                static_cast<double>(
                    world->network->base_station().cached_sample_count()),
                "count");
    metrics.add("iot.round_us", spans.self_us("iot.round"), "us");
    metrics.add("iot.rounds_per_purchase",
                ratio(delta(a.rounds, b.rounds), served), "count");
    metrics.add("iot.noop_rounds_per_purchase",
                ratio(delta(a.rounds_noop, b.rounds_noop), served), "count");
    metrics.add("iot.refresh_us", spans.self_us("bench.refresh"), "us");
    metrics.add("iot.append_us", spans.self_us("bench.append"), "us");
    metrics.add("iot.retransmission_ratio",
                ratio(delta(a.network.retransmissions,
                            b.network.retransmissions),
                      frames),
                "share");
    metrics.add("iot.frame_drop_ratio",
                ratio(delta(a.network.dropped_frames,
                            b.network.dropped_frames),
                      frames),
                "share");
    metrics.add("pricing.best_attack_us", spans.self_us("bench.best_attack"),
                "us");
    metrics.add("pricing.quote_cache_hit_ratio",
                ratio(delta(a.quote_hits, b.quote_hits),
                      delta(a.quote_hits, b.quote_hits) +
                          delta(a.quote_misses, b.quote_misses)),
                "share");
    metrics.add("pricing.price_evals_per_purchase",
                ratio(delta(a.price_evals, b.price_evals), served), "count");
    metrics.add("pricing.arbitrage_check_ms", median(check_ms), "ms");
    metrics.add("data.generate_ms", median(generate_ms), "ms");
    metrics.add("iot.initial_round_ms", median(round_ms), "ms");
    metrics.add("bench.request_self_us", spans.self_us("bench.request"), "us");
    metrics.add("market.sells_per_purchase", ratio(sells, served), "count");
    metrics.add("trace.overhead_share", ratio(traced_cpu, plain_cpu) - 1.0,
                "share");
    metrics.add("trace.coverage_share",
                ratio(static_cast<double>(spans.self_sum_ns()) * 1e-9,
                      traced.wall_s),
                "share");
    metrics.add("trace.spans_dropped", static_cast<double>(spans.dropped()),
                "count");
    metrics.add("trace.latency_samples",
                static_cast<double>(traced.latency_us.size()), "count");
  }

  const auto checks = run_checks(*world);
  bool correct = true;
  for (const auto& check : checks) {
    std::printf("check %-26s %s  %s\n", check.name.c_str(),
                check.ok ? "ok  " : "FAIL", check.detail.c_str());
    correct = correct && check.ok;
  }
  if (spans_dropped != 0) {
    // A dropped span would make the self time of its parent wrong.
    std::printf("check %-26s FAIL  %llu spans dropped\n", "trace_complete",
                static_cast<unsigned long long>(spans_dropped));
    correct = false;
  }
  metrics.print_table();
  if (workload.wal) std::filesystem::remove(wal_path);
  world.reset();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              metrics.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "broker_bench: %s\n", e.what());
    return 2;
  }
}
