#include "support/histogram.h"

#include <cmath>
#include <stdexcept>

namespace prc {

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  if (bins < 1) throw std::invalid_argument("histogram needs >= 1 bin");
  if (!(lo < hi)) throw std::invalid_argument("histogram needs lo < hi");
  width_ = (hi - lo) / static_cast<double>(bins);
}

void Histogram::add(double x) noexcept {
  ++total_;
  std::size_t bin;
  if (x < lo_) {
    ++underflow_;
    bin = 0;
  } else if (x >= hi_) {
    if (x > hi_) ++overflow_;
    bin = counts_.size() - 1;
  } else {
    bin = static_cast<std::size_t>((x - lo_) / width_);
    if (bin >= counts_.size()) bin = counts_.size() - 1;  // fp edge case
  }
  ++counts_[bin];
}

double Histogram::bin_low(std::size_t bin) const {
  if (bin >= counts_.size()) throw std::out_of_range("bin index");
  return lo_ + width_ * static_cast<double>(bin);
}

double Histogram::bin_high(std::size_t bin) const {
  return bin_low(bin) + width_;
}

double Histogram::bin_center(std::size_t bin) const {
  return bin_low(bin) + width_ / 2.0;
}

double Histogram::density(std::size_t bin) const {
  if (bin >= counts_.size()) throw std::out_of_range("bin index");
  if (total_ == 0) return 0.0;
  return static_cast<double>(counts_[bin]) / static_cast<double>(total_);
}

double Histogram::total_variation_distance(const Histogram& other) const {
  if (other.counts_.size() != counts_.size() || other.lo_ != lo_ ||
      other.hi_ != hi_) {
    throw std::invalid_argument("histograms have different binning");
  }
  double tv = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    tv += std::abs(density(i) - other.density(i));
  }
  return tv / 2.0;
}

}  // namespace prc
