#include "estimator/rank_counting.h"

#include "common/check.h"
#include "common/parallel.h"

namespace prc::estimator {
namespace {

/// Sum of per-node estimates over the fixed reduce chunk grid.  Every
/// estimate here goes through this helper, so rank_counting_term_sum of
/// stored terms is bit-identical to the heterogeneous estimate at any
/// thread count.
template <typename NodeEstimateFn>
double chunked_node_sum(std::size_t node_count, NodeEstimateFn&& estimate) {
  return parallel::parallel_reduce(
      node_count, parallel::kDefaultReduceChunk, 0.0,
      [&](std::size_t begin, std::size_t end) {
        double partial = 0.0;
        for (std::size_t i = begin; i < end; ++i) partial += estimate(i);
        return partial;
      },
      [](double acc, double partial) { return acc + partial; });
}

}  // namespace

double rank_counting_node_term(const NodeSampleView& node, double probability,
                               const query::RangeQuery& range) {
  PRC_CHECK(node.samples != nullptr) << "rank counting: null node sample view";
  // Empty nodes contribute 0 regardless of p; skipping them lets callers
  // pass probability 0 for nodes that never reported.
  if (node.data_count == 0) return 0.0;
  if (node.samples->empty()) {
    // No cached samples: the 4-case estimator degenerates to
    // gamma(fst, lst, i) = n_i, which does not involve p at all.  This
    // also covers nodes the station knows only by cardinality (p_i = 0).
    return static_cast<double>(node.data_count);
  }
  return rank_counting_node_estimate(*node.samples, node.data_count,
                                     probability, range);
}

double rank_counting_term_sum(std::span<const double> terms) {
  return chunked_node_sum(terms.size(), [&](std::size_t i) { return terms[i]; });
}

double rank_counting_node_estimate(const sampling::RankSampleSet& samples,
                                   std::size_t data_count, double p,
                                   const query::RangeQuery& range) {
  PRC_CHECK_PROB(p);
  range.validate();
  if (data_count == 0) return 0.0;

  const auto pred = samples.predecessor(range.lower);
  const auto succ = samples.successor(range.upper);
  const double n_i = static_cast<double>(data_count);
  const double inv_p = 1.0 / p;

  if (pred && succ) {
    // gamma(p(l), s(u), i): elements ranked between the two samples,
    // inclusive — exact thanks to the transmitted ranks.
    const double interior =
        static_cast<double>(succ->rank) - static_cast<double>(pred->rank) + 1.0;
    return interior - 2.0 * inv_p;
  }
  if (pred) {
    // gamma(p(l), lst, i): from the predecessor to the node's maximum.
    const double interior = n_i - static_cast<double>(pred->rank) + 1.0;
    return interior - inv_p;
  }
  if (succ) {
    // gamma(fst, s(u), i): from the node's minimum to the successor.
    const double interior = static_cast<double>(succ->rank);
    return interior - inv_p;
  }
  // gamma(fst, lst, i) = n_i.
  return n_i;
}

double rank_counting_estimate(std::span<const NodeSampleView> nodes, double p,
                              const query::RangeQuery& range) {
  return chunked_node_sum(nodes.size(), [&](std::size_t i) {
    PRC_CHECK(nodes[i].samples != nullptr)
        << "rank counting: null node sample view";
    return rank_counting_node_estimate(*nodes[i].samples, nodes[i].data_count,
                                       p, range);
  });
}

double rank_counting_estimate(std::span<const NodeSampleView> nodes,
                              std::span<const double> probabilities,
                              const query::RangeQuery& range) {
  PRC_CHECK(nodes.size() == probabilities.size())
      << "rank counting: one probability per node required, got "
      << nodes.size() << " nodes and " << probabilities.size()
      << " probabilities";
  return chunked_node_sum(nodes.size(), [&](std::size_t i) {
    return rank_counting_node_term(nodes[i], probabilities[i], range);
  });
}

double rank_counting_node_variance_bound(double p) {
  PRC_CHECK(p > 0.0) << "p must be positive, got " << p;
  return 8.0 / (p * p);
}

double rank_counting_variance_bound(std::size_t node_count, double p) {
  return static_cast<double>(node_count) * rank_counting_node_variance_bound(p);
}

double rank_counting_variance_bound(std::span<const double> probabilities) {
  double total = 0.0;
  for (const double p : probabilities) {
    total += rank_counting_node_variance_bound(p);
  }
  return total;
}

}  // namespace prc::estimator
