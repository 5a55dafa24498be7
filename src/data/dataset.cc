#include "data/dataset.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace prc::data {

Column::Column(std::string name, std::vector<double> values)
    : name_(std::move(name)), values_(std::move(values)) {
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (!std::isfinite(values_[i])) {
      throw std::invalid_argument("column '" + name_ + "': value " +
                                  std::to_string(i) + " is not finite");
    }
  }
}

const std::vector<double>& Column::sorted() const {
  std::call_once(sorted_->once, [this] {
    sorted_->values = values_;
    std::sort(sorted_->values.begin(), sorted_->values.end());
  });
  return sorted_->values;
}

double Column::min() const {
  if (values_.empty()) throw std::logic_error("min of empty column");
  return sorted().front();
}

double Column::max() const {
  if (values_.empty()) throw std::logic_error("max of empty column");
  return sorted().back();
}

double Column::quantile(double q) const {
  if (values_.empty()) throw std::logic_error("quantile of empty column");
  if (q < 0.0 || q > 1.0) throw std::invalid_argument("q must be in [0, 1]");
  const auto& v = sorted();
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

std::size_t Column::exact_range_count(double l, double u) const {
  if (l > u) return 0;
  const auto& v = sorted();
  const auto first = std::lower_bound(v.begin(), v.end(), l);
  const auto last = std::upper_bound(v.begin(), v.end(), u);
  return static_cast<std::size_t>(last - first);
}

Dataset::Dataset(const std::vector<AirQualityRecord>& records) {
  record_count_ = records.size();
  columns_.reserve(kAirQualityIndexCount);
  for (auto index : kAllAirQualityIndexes) {
    std::vector<double> values;
    values.reserve(records.size());
    for (const auto& record : records) values.push_back(record.value(index));
    columns_.emplace_back(std::string(index_name(index)), std::move(values));
  }
}

const Column& Dataset::column(AirQualityIndex index) const {
  return columns_.at(static_cast<std::size_t>(index));
}

Dataset Dataset::prefix(const std::vector<AirQualityRecord>& records,
                        std::size_t count) {
  const std::size_t n = std::min(count, records.size());
  return Dataset(
      std::vector<AirQualityRecord>(records.begin(), records.begin() + n));
}

}  // namespace prc::data
