// Commits a sale to a Ledger the way DataBroker::sell does: reserve its
// epsilon', then commit the reservation.  Ledger tests that are about the
// books, not the cap, go through this one path.
#pragma once

#include <cstddef>
#include <limits>
#include <utility>

#include "market/ledger.h"

namespace prc::market {

/// Reserves `sale.epsilon_amplified` under an unbounded cap and commits it;
/// returns the sale's ledger sequence.  Throws what try_reserve() or
/// commit() throw for an invalid sale.
inline std::size_t reserve_and_commit(Ledger& ledger, const Transaction& sale) {
  auto reservation = ledger.try_reserve(
      sale.consumer_id, sale.epsilon_amplified,
      std::numeric_limits<double>::infinity(), sale.range, sale.spec);
  return ledger.commit(std::move(reservation).value(), sale);
}

}  // namespace prc::market
