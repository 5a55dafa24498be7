// Fixed-width histogram over a closed interval, for the tests'
// empirical-distribution checks on the Laplace mechanism and the samplers.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace prc {

class Histogram {
 public:
  /// Buckets the interval [lo, hi] into `bins` equal-width bins.
  /// Requires bins >= 1 and lo < hi.
  Histogram(double lo, double hi, std::size_t bins);

  /// Adds an observation; values outside [lo, hi] land in saturating edge
  /// bins and are also tallied in underflow()/overflow().
  void add(double x) noexcept;

  std::size_t bins() const noexcept { return counts_.size(); }
  std::size_t count(std::size_t bin) const { return counts_.at(bin); }
  std::size_t total() const noexcept { return total_; }
  std::size_t underflow() const noexcept { return underflow_; }
  std::size_t overflow() const noexcept { return overflow_; }

  double bin_low(std::size_t bin) const;
  double bin_high(std::size_t bin) const;
  double bin_center(std::size_t bin) const;

  /// Empirical probability mass of a bin.
  double density(std::size_t bin) const;

  /// Total-variation distance to another histogram with identical binning.
  /// Requires matching lo/hi/bins.
  double total_variation_distance(const Histogram& other) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
  std::size_t underflow_ = 0;
  std::size_t overflow_ = 0;
};

}  // namespace prc
