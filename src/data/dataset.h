// Columnar view over air-quality records.
//
// The estimators operate on plain multisets of doubles (one per air-quality
// index); Dataset adapts record sequences to that view and provides the
// value-domain metadata (min/max/quantiles) that workload generators use to
// produce meaningful query ranges.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/record.h"

namespace prc::data {

/// A single scalar column extracted from records, with cached order
/// statistics for range construction.  The sorted copy behind them is built
/// once, on the first min/max/quantile/exact_range_count, and shared by the
/// column's copies; a column nobody queries is never sorted.
class Column {
 public:
  /// Throws std::invalid_argument if a value is not finite.
  Column(std::string name, std::vector<double> values);

  const std::string& name() const noexcept { return name_; }
  const std::vector<double>& values() const noexcept { return values_; }
  std::size_t size() const noexcept { return values_.size(); }
  bool empty() const noexcept { return values_.empty(); }

  /// Domain minimum/maximum.  Require non-empty column.
  double min() const;
  double max() const;

  /// Value at quantile q in [0, 1] (linear interpolation on sorted values).
  double quantile(double q) const;

  /// Exact range count |{x : l <= x <= u}| computed on the sorted copy in
  /// O(log n); this is the ground-truth oracle for all experiments.
  std::size_t exact_range_count(double l, double u) const;

 private:
  struct Sorted {
    std::once_flag once;
    std::vector<double> values;
  };
  const std::vector<double>& sorted() const;

  std::string name_;
  std::vector<double> values_;
  std::shared_ptr<Sorted> sorted_ = std::make_shared<Sorted>();
};

/// All five air-quality columns of a record set.
class Dataset {
 public:
  explicit Dataset(const std::vector<AirQualityRecord>& records);

  std::size_t record_count() const noexcept { return record_count_; }

  const Column& column(AirQualityIndex index) const;

  /// Dataset restricted to the first `count` records, matching the paper's
  /// Fig. 4 "data size 10%..100%" prefix scaling.
  static Dataset prefix(const std::vector<AirQualityRecord>& records,
                        std::size_t count);

 private:
  Dataset() = default;
  std::size_t record_count_ = 0;
  std::vector<Column> columns_;
};

}  // namespace prc::data
