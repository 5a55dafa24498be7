#include "market/simulation.h"

#include <algorithm>
#include <stdexcept>

#include "common/logging.h"
#include "common/parallel.h"

namespace prc::market {
namespace {

/// Per-consumer, per-round probability of issuing a request.
constexpr double kArrivalProbability = 0.5;

/// One consumer arrival, fully determined by the pre-draw phase.
struct Ticket {
  bool attacker = false;
  std::size_t consumer = 0;  // index into the honest/attacker population
  query::AccuracySpec spec;
  const query::RangeQuery* range = nullptr;
  /// Filled by the parallel deliberation phase for attacker tickets.
  pricing::AttackResult plan;
};

/// What one committed ticket contributes to the report (merged serially in
/// arrival order, so tallies are identical in both commit modes' shapes).
struct TicketOutcome {
  bool refused = false;
  StrategyOutcome outcome;
  double honest_value = 0.0;  // what the attacker WOULD have paid
  bool profitable = false;
};

}  // namespace

MarketSimulation::MarketSimulation(DataBroker& broker,
                                   pricing::VarianceModel model,
                                   std::vector<query::RangeQuery> query_pool,
                                   SimulationConfig config)
    : broker_(broker),
      model_(model),
      query_pool_(std::move(query_pool)),
      config_(config) {
  if (query_pool_.empty()) {
    throw std::invalid_argument("simulation needs a non-empty query pool");
  }
  if (config_.rounds == 0) {
    throw std::invalid_argument("simulation needs >= 1 round");
  }
  if (!(config_.alpha_min > 0.0) || config_.alpha_min > config_.alpha_max ||
      config_.alpha_max > 1.0 || !(config_.delta_min > 0.0) ||
      config_.delta_min > config_.delta_max || config_.delta_max >= 1.0) {
    throw std::invalid_argument("simulation contract box invalid");
  }
}

query::AccuracySpec MarketSimulation::draw_contract(Rng& rng) const {
  return query::AccuracySpec{
      rng.uniform(config_.alpha_min, config_.alpha_max),
      rng.uniform(config_.delta_min, config_.delta_max)};
}

SimulationReport MarketSimulation::run() {
  Rng rng(config_.seed);
  SimulationReport report;
  report.rounds = config_.rounds;

  std::vector<HonestConsumer> honest;
  honest.reserve(config_.honest_consumers);
  for (std::size_t i = 0; i < config_.honest_consumers; ++i) {
    honest.emplace_back("honest-" + std::to_string(i), broker_);
  }
  std::vector<ArbitrageAttacker> attackers;
  attackers.reserve(config_.attackers);
  for (std::size_t i = 0; i < config_.attackers; ++i) {
    attackers.emplace_back("attacker-" + std::to_string(i), broker_,
                           pricing::AttackSimulator(model_));
  }

  const auto draw_range = [&]() -> const query::RangeQuery& {
    return query_pool_[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(query_pool_.size()) - 1))];
  };

  // Phase 1 — serial pre-draw.  Consumes the simulation RNG in exactly the
  // order the all-in-one loop did (arrival gate, contract, range; honest
  // before attackers each round), so the ticket list is independent of how
  // the later phases are scheduled.
  std::vector<Ticket> tickets;
  for (std::size_t round = 0; round < config_.rounds; ++round) {
    for (std::size_t i = 0; i < honest.size(); ++i) {
      if (!rng.bernoulli(kArrivalProbability)) continue;
      Ticket ticket;
      ticket.consumer = i;
      ticket.spec = draw_contract(rng);
      ticket.range = &draw_range();
      tickets.push_back(ticket);
    }
    for (std::size_t i = 0; i < attackers.size(); ++i) {
      if (!rng.bernoulli(kArrivalProbability)) continue;
      Ticket ticket;
      ticket.attacker = true;
      ticket.consumer = i;
      ticket.spec = draw_contract(rng);
      ticket.range = &draw_range();
      tickets.push_back(ticket);
    }
  }

  // Phase 2 — parallel deliberation.  best_attack is a pure grid search in
  // (pricing, target) — the dominant cost of an attacker-heavy simulation —
  // so every ticket's plan can be computed concurrently with no effect on
  // the committed stream.
  const pricing::AttackSimulator simulator(model_);
  parallel::parallel_for_each(tickets.size(), [&](std::size_t t) {
    if (!tickets[t].attacker) return;
    tickets[t].plan = simulator.best_attack(broker_.pricing(), tickets[t].spec);
  });

  // Phase 3 — commit.  Arrival order by default (the broker's noise stream
  // and ledger sequence match the serial simulator bit for bit); under
  // concurrent_consumers the same per-ticket body runs on the pool instead,
  // deliberately racing the broker/counter/ledger locks.
  const auto execute = [&](const Ticket& ticket) -> TicketOutcome {
    TicketOutcome out;
    try {
      if (ticket.attacker) {
        out.outcome = config_.concurrent_consumers
                          ? attackers[ticket.consumer].execute_plan(
                                *ticket.range, ticket.spec, ticket.plan)
                          : attackers[ticket.consumer].acquire(
                                *ticket.range, ticket.spec, ticket.plan);
        out.honest_value = broker_.quote(ticket.spec);
        out.profitable = ticket.plan.profitable;
      } else {
        out.outcome = honest[ticket.consumer].acquire(*ticket.range,
                                                      ticket.spec);
      }
    } catch (const BudgetExceededError&) {
      out.refused = true;
    }
    return out;
  };

  std::vector<TicketOutcome> outcomes(tickets.size());
  if (config_.concurrent_consumers) {
    parallel::parallel_for_each(tickets.size(), [&](std::size_t t) {
      outcomes[t] = execute(tickets[t]);
    });
  } else {
    for (std::size_t t = 0; t < tickets.size(); ++t) {
      outcomes[t] = execute(tickets[t]);
    }
  }

  for (std::size_t t = 0; t < tickets.size(); ++t) {
    const Ticket& ticket = tickets[t];
    const TicketOutcome& out = outcomes[t];
    if (out.refused) {
      ++report.refused_sales;
      continue;
    }
    if (ticket.attacker) {
      ++report.attacker_targets;
      report.attacker_queries += out.outcome.queries_issued;
      report.attacker_spend += out.outcome.total_cost;
      report.attacker_honest_value += out.honest_value;
      if (out.profitable) ++report.profitable_attacks;
    } else {
      ++report.honest_purchases;
      report.honest_spend += out.outcome.total_cost;
    }
  }

  report.revenue = broker_.ledger().total_revenue();
  for (const auto& consumer : honest) {
    report.max_honest_epsilon =
        std::max<double>(report.max_honest_epsilon,
                         broker_.ledger().consumer_epsilon(consumer.id()));
  }
  for (const auto& attacker : attackers) {
    report.max_attacker_epsilon =
        std::max<double>(report.max_attacker_epsilon,
                         broker_.ledger().consumer_epsilon(attacker.id()));
  }
  PRC_LOG_INFO << "market simulation: " << report.honest_purchases
               << " honest purchases, " << report.attacker_targets
               << " attacker acquisitions, revenue " << report.revenue;
  return report;
}

}  // namespace prc::market
