// The RankCounting estimator (paper §III-A).
//
// Per node i, with per-element inclusion probability p, sampled set S_i and
// local size n_i, the estimate of gamma(l, u, i) is the 4-case formula:
//
//   gamma(p(l), s(u), i) - 2/p   if predecessor and successor both exist
//   gamma(p(l), lst,  i) - 1/p   if only the predecessor exists
//   gamma(fst,  s(u), i) - 1/p   if only the successor exists
//   gamma(fst,  lst,  i) = n_i   otherwise
//
// where p(l) is the largest sampled value <= l, s(u) the smallest sampled
// value > u, and the interior counts are exact because samples carry their
// local ranks.  The estimator is unbiased with per-node variance <= 8/p^2
// (Thm 3.1) and global variance <= 8k/p^2 (Thm 3.2) — independent of the
// query width, unlike the BasicCounting baseline.
#pragma once

#include <cstddef>
#include <span>

#include "query/range_query.h"
#include "sampling/rank_sample.h"

namespace prc::estimator {

/// What the base station knows about one node: its current rank-annotated
/// sample and the node's local data cardinality n_i (nodes report n_i with
/// their samples; it is a single integer, not sensitive payload).
struct NodeSampleView {
  const sampling::RankSampleSet* samples = nullptr;
  std::size_t data_count = 0;  // n_i
};

/// Per-node RankCounting estimate of gamma(l, u, i).  May be negative (the
/// correction terms can overshoot); negativity is essential for
/// unbiasedness and is only clamped at the response boundary.
/// Requires p in (0, 1]; returns 0 for an empty node.
double rank_counting_node_estimate(const sampling::RankSampleSet& samples,
                                   std::size_t data_count, double p,
                                   const query::RangeQuery& range);

/// Global estimate: sum of per-node estimates (paper Eq. 2).
double rank_counting_estimate(std::span<const NodeSampleView> nodes, double p,
                              const query::RangeQuery& range);

/// Heterogeneous-probability overload: node i's sample was collected at its
/// own inclusion probability probabilities[i] (per-node Horvitz–Thompson
/// correction).  This keeps the estimate unbiased when a degraded round
/// left some nodes at an older p than the rest of the fleet.  Nodes with
/// data_count == 0 contribute nothing and may carry probability 0; a node
/// with data but an EMPTY cached sample contributes the case-4 estimate
/// n_i (p never enters that branch, so probability 0 is fine there too); a
/// node with samples but probability outside (0, 1] throws
/// std::invalid_argument.
double rank_counting_estimate(std::span<const NodeSampleView> nodes,
                              std::span<const double> probabilities,
                              const query::RangeQuery& range);

/// Node i's term of the heterogeneous estimate below: 0 for an empty node,
/// n_i for a node with data but no cached sample, else the 4-case estimate
/// at `probability`.  A caller that keeps terms across calls and adds them
/// with rank_counting_term_sum() gets the estimate's exact bits.
double rank_counting_node_term(const NodeSampleView& node, double probability,
                               const query::RangeQuery& range);

/// Sum of per-node terms over the fixed reduce chunk grid every estimate
/// here uses: rank_counting_term_sum of the k terms equals the
/// heterogeneous rank_counting_estimate over the same nodes bit for bit.
double rank_counting_term_sum(std::span<const double> terms);

/// Theorem 3.1 bound on one node's estimator variance: 8 / p^2.
double rank_counting_node_variance_bound(double p);

/// Theorem 3.2 bound on the global estimator variance: 8k / p^2.
double rank_counting_variance_bound(std::size_t node_count, double p);

/// Heterogeneous Theorem 3.2: sum of 8 / p_i^2 over the given per-node
/// probabilities.  Entries <= 0 throw (a node with unknown data has no
/// finite variance bound; callers must filter those out first).
double rank_counting_variance_bound(std::span<const double> probabilities);

}  // namespace prc::estimator
