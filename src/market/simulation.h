// Multi-round market simulation: the Fig. 1 ecosystem under load.
//
// A population of honest consumers and arbitrage attackers arrives over
// rounds, each drawing a random contract and a random range from a query
// pool, and shops at one broker.  The simulation tallies revenue, refusals
// (privacy-budget caps), attack success, and the privacy leakage per
// consumer class — the observable consequences of the pricing-function
// choice that Section IV argues about.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "market/broker.h"
#include "market/consumer.h"
#include "pricing/arbitrage.h"
#include "query/range_query.h"

namespace prc::market {

struct SimulationConfig {
  std::size_t rounds = 50;
  std::size_t honest_consumers = 5;
  std::size_t attackers = 2;
  /// Contracts are drawn uniformly from these boxes.
  double alpha_min = 0.03, alpha_max = 0.25;
  double delta_min = 0.4, delta_max = 0.9;
  std::uint64_t seed = 1;
  /// Commit purchases concurrently (parallel::thread_count() workers)
  /// instead of in arrival order.  This hammers the broker/counter/ledger
  /// locks but makes the RUN NONDETERMINISTIC: sales interleave, so noise
  /// values, refusal counts, and ledger ordering vary run to run.  Only the
  /// conserved quantities (transaction count vs. purchases, revenue vs.
  /// prices paid, budget conservation) are stable — use it for contention
  /// tests, never for figures.  Default off: arrival-order commit is
  /// bit-identical for every thread count.
  bool concurrent_consumers = false;
};

struct SimulationReport {
  std::size_t rounds = 0;
  std::size_t honest_purchases = 0;
  std::size_t attacker_queries = 0;   ///< individual queries issued
  std::size_t attacker_targets = 0;   ///< distinct target acquisitions
  std::size_t profitable_attacks = 0;
  std::size_t refused_sales = 0;      ///< budget-cap refusals
  double revenue = 0.0;
  double honest_spend = 0.0;
  double attacker_spend = 0.0;
  /// What the attackers WOULD have paid buying honestly.
  double attacker_honest_value = 0.0;
  double max_honest_epsilon = 0.0;
  double max_attacker_epsilon = 0.0;

  /// Revenue lost to arbitrage: honest value minus what attackers paid.
  double arbitrage_leakage() const {
    return attacker_honest_value - attacker_spend;
  }
};

class MarketSimulation {
 public:
  /// `broker` serves the whole population; `query_pool` supplies the ranges
  /// consumers ask about; `model` powers the attackers' search.  All must
  /// outlive the simulation.
  MarketSimulation(DataBroker& broker, pricing::VarianceModel model,
                   std::vector<query::RangeQuery> query_pool,
                   SimulationConfig config = {});

  /// Runs all rounds and returns the tally.  Deterministic in config.seed
  /// for any parallel::thread_count(): arrivals, contracts and ranges are
  /// drawn serially up front, the attackers' plan searches (the expensive,
  /// pure part) run in parallel, and purchases commit in arrival order so
  /// the broker's noise stream and ledger sequence match the serial run
  /// bit for bit.  config.concurrent_consumers trades that determinism for
  /// genuine lock contention (see its comment).
  SimulationReport run();

 private:
  query::AccuracySpec draw_contract(Rng& rng) const;

  DataBroker& broker_;
  pricing::VarianceModel model_;
  std::vector<query::RangeQuery> query_pool_;
  SimulationConfig config_;
};

}  // namespace prc::market
