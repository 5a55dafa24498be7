#include "common/telemetry.h"

#include <algorithm>
#include <bit>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/check.h"
#include "common/json.h"

namespace prc::telemetry {

namespace {

void append_double(std::ostringstream& out, double value) {
  // max_digits10 keeps snapshot -> JSON -> snapshot lossless.
  const auto previous = out.precision();
  out.precision(std::numeric_limits<double>::max_digits10);
  out << value;
  out.precision(previous);
}

/// Minimal cursor over the JSON dialect to_json() emits.
class JsonCursor {
 public:
  explicit JsonCursor(const std::string& text) : text_(text) {}

  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(
               static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void expect(char c) {
    if (!consume(c)) {
      throw std::invalid_argument(std::string("telemetry JSON: expected '") +
                                  c + "' at offset " + std::to_string(pos_));
    }
  }

  char peek() {
    skip_ws();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) c = unescape(text_[pos_++]);
      out.push_back(c);
    }
    expect('"');
    return out;
  }

  // The character an escape sequence stands for (json_escape's dialect);
  // `escape` is the character after the backslash.
  char unescape(char escape) {
    if (escape == 'n') return '\n';
    if (escape == 't') return '\t';
    if (escape != 'u') return escape;
    if (pos_ + 4 > text_.size()) {
      throw std::invalid_argument("telemetry JSON: truncated \\u escape");
    }
    const std::string hex = text_.substr(pos_, 4);
    pos_ += 4;
    return static_cast<char>(std::stoi(hex, nullptr, 16));
  }

  double parse_number() {
    skip_ws();
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    const double value = std::strtod(begin, &end);
    if (end == begin) {
      throw std::invalid_argument("telemetry JSON: expected a number at "
                                  "offset " + std::to_string(pos_));
    }
    pos_ += static_cast<std::size_t>(end - begin);
    return value;
  }

  /// A count: a non-negative integral number below 2^64, checked before
  /// the cast (casting a negative or non-finite double is undefined).
  std::uint64_t parse_count() {
    const std::size_t at = pos_;
    const double value = parse_number();
    if (!(value >= 0.0 && value < 0x1p64 && value == std::floor(value))) {
      throw std::invalid_argument(
          "telemetry JSON: expected a non-negative integer count at "
          "offset " + std::to_string(at));
    }
    return static_cast<std::uint64_t>(value);
  }

  void expect_end() {
    skip_ws();
    if (pos_ != text_.size()) {
      throw std::invalid_argument("telemetry JSON: trailing characters at "
                                  "offset " + std::to_string(pos_));
    }
  }

 private:
  const std::string& text_;
  std::size_t pos_ = 0;
};

// A key that orders doubles as their values do, at binade resolution:
// the sign and exponent bits of an order-preserving map of the bit
// pattern (negatives bit-flipped, positives with the sign bit set).
// a < b implies exponent_key(a) <= exponent_key(b), so a smaller key means
// a smaller value; -0.0 is folded into +0.0 first, since they compare
// equal.
std::uint32_t exponent_key(double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value + 0.0);
  constexpr std::uint64_t kSign = std::uint64_t{1} << 63;
  const std::uint64_t ordered = (bits & kSign) != 0 ? ~bits : bits | kSign;
  return static_cast<std::uint32_t>(ordered >> 52);
}

}  // namespace

std::int64_t steady_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const std::vector<double>& default_bounds() {
  static const std::vector<double> bounds = [] {
    // 1-2-5 series over 10^-6 .. 10^9.
    std::vector<double> out;
    for (int exponent = -6; exponent <= 9; ++exponent) {
      const double decade = std::pow(10.0, exponent);
      for (double mantissa : {1.0, 2.0, 5.0}) {
        out.push_back(mantissa * decade);
      }
    }
    return out;
  }();
  return bounds;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  PRC_CHECK(!bounds_.empty()) << "histogram needs >= 1 bucket bound";
  for (std::size_t i = 0; i + 1 < bounds_.size(); ++i) {
    PRC_CHECK(bounds_[i] < bounds_[i + 1])
        << "histogram bounds must be strictly increasing at index " << i;
  }
  PRC_CHECK(bounds_.size() <= std::numeric_limits<std::uint32_t>::max())
      << "histogram has too many bounds: " << bounds_.size();
  counts_.assign(bounds_.size() + 1, 0);
  first_key_ = exponent_key(bounds_.front());
  const std::uint32_t last_key = exponent_key(bounds_.back());
  first_bound_.reserve(last_key - first_key_ + 1);
  std::uint32_t below = 0;
  for (std::uint32_t key = first_key_; key <= last_key; ++key) {
    while (exponent_key(bounds_[below]) < key) ++below;
    first_bound_.push_back({bounds_[below], below});
  }
}

std::size_t Histogram::bucket_of(double value) const {
  // Every bound with a smaller key is below the value and every bound with
  // a larger key is above it, so only bounds that share the value's binade
  // are compared.  The first comparison is branch-free; the scan after it
  // only moves for bounds denser than one per binade.
  const std::uint32_t key = exponent_key(value);
  if (key < first_key_) return 0;
  if (key - first_key_ >= first_bound_.size()) return bounds_.size();
  const Candidate& first = first_bound_[key - first_key_];
  std::size_t bucket =
      first.index + static_cast<std::size_t>(first.bound < value);
  while (bucket < bounds_.size() && bounds_[bucket] < value) ++bucket;
  return bucket;
}

void Histogram::record(double value) { record_all({&value, 1}); }

void Histogram::record_all(std::span<const double> values) {
  for (const double value : values) PRC_CHECK_FINITE(value);
  if (values.empty()) return;
  std::lock_guard<std::mutex> lock(mutex_);
  // The running sum, min and max stay in locals across the batch (a store
  // to counts_ could alias count_, so members would be reloaded per value);
  // the sum still adds the values one by one, in order.
  double sum = sum_;
  double min = count_ == 0 ? values.front() : min_;
  double max = count_ == 0 ? values.front() : max_;
  for (const double value : values) {
    ++counts_[bucket_of(value)];
    sum += value;
    min = std::min(min, value);
    max = std::max(max, value);
  }
  sum_ = sum;
  min_ = min;
  max_ = max;
  count_ += values.size();
}

double Histogram::quantile_locked(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_);
  double seen = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double next = seen + static_cast<double>(counts_[i]);
    if (rank <= next) {
      // Linear interpolation inside the bucket; the edge buckets use the
      // exact observed min/max as their finite ends.
      const double lo = i == 0 ? min_ : bounds_[i - 1];
      const double hi = i == bounds_.size() ? max_ : bounds_[i];
      const double fraction =
          (rank - seen) / static_cast<double>(counts_[i]);
      const double value = lo + (hi - lo) * fraction;
      return std::clamp(value, min_, max_);
    }
    seen = next;
  }
  return max_;
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot out;
  out.bounds = bounds_;
  std::lock_guard<std::mutex> lock(mutex_);
  out.count = count_;
  out.sum = sum_;
  out.min = min_;
  out.max = max_;
  out.p50 = quantile_locked(0.50);
  out.p95 = quantile_locked(0.95);
  out.p99 = quantile_locked(0.99);
  out.bucket_counts = counts_;
  return out;
}

void Histogram::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::fill(counts_.begin(), counts_.end(), 0);
  count_ = 0;
  sum_ = min_ = max_ = 0.0;
}

std::size_t TelemetrySnapshot::metric_count() const noexcept {
  return counters.size() + gauges.size() + histograms.size();
}

bool TelemetrySnapshot::has_prefix(const std::string& prefix) const {
  const auto starts = [&prefix](const std::string& name) {
    return name.rfind(prefix, 0) == 0;
  };
  for (const auto& [name, value] : counters) {
    if (starts(name)) return true;
  }
  for (const auto& [name, value] : gauges) {
    if (starts(name)) return true;
  }
  for (const auto& histogram : histograms) {
    if (starts(histogram.name)) return true;
  }
  return false;
}

std::string TelemetrySnapshot::to_json() const {
  std::ostringstream out;
  out << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    \""
        << json_escape(counters[i].first) << "\": " << counters[i].second;
  }
  out << (counters.empty() ? "}" : "\n  }") << ",\n  \"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    \""
        << json_escape(gauges[i].first) << "\": ";
    append_double(out, gauges[i].second);
  }
  out << (gauges.empty() ? "}" : "\n  }") << ",\n  \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const auto& h = histograms[i];
    out << (i == 0 ? "\n" : ",\n") << "    \"" << json_escape(h.name)
        << "\": {\"count\": " << h.count << ", \"sum\": ";
    append_double(out, h.sum);
    out << ", \"min\": ";
    append_double(out, h.min);
    out << ", \"max\": ";
    append_double(out, h.max);
    out << ", \"p50\": ";
    append_double(out, h.p50);
    out << ", \"p95\": ";
    append_double(out, h.p95);
    out << ", \"p99\": ";
    append_double(out, h.p99);
    out << ", \"bounds\": [";
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      if (b != 0) out << ", ";
      append_double(out, h.bounds[b]);
    }
    out << "], \"bucket_counts\": [";
    for (std::size_t b = 0; b < h.bucket_counts.size(); ++b) {
      if (b != 0) out << ", ";
      out << h.bucket_counts[b];
    }
    out << "]}";
  }
  out << (histograms.empty() ? "}" : "\n  }") << "\n}\n";
  return out.str();
}

std::string TelemetrySnapshot::to_csv() const {
  std::ostringstream out;
  out << "kind,name,field,value\n";
  for (const auto& [name, value] : counters) {
    out << "counter," << name << ",value," << value << "\n";
  }
  for (const auto& [name, value] : gauges) {
    out << "gauge," << name << ",value,";
    append_double(out, value);
    out << "\n";
  }
  for (const auto& h : histograms) {
    out << "histogram," << h.name << ",count," << h.count << "\n";
    const std::pair<const char*, double> fields[] = {
        {"sum", h.sum},   {"min", h.min}, {"max", h.max},
        {"mean", h.mean()}, {"p50", h.p50}, {"p95", h.p95},
        {"p99", h.p99}};
    for (const auto& [field, value] : fields) {
      out << "histogram," << h.name << "," << field << ",";
      append_double(out, value);
      out << "\n";
    }
  }
  return out.str();
}

TelemetrySnapshot TelemetrySnapshot::from_json(const std::string& json) {
  TelemetrySnapshot out;
  JsonCursor cursor(json);
  cursor.expect('{');

  const auto parse_section = [&cursor](const std::string& expected_key) {
    const std::string key = cursor.parse_string();
    if (key != expected_key) {
      throw std::invalid_argument("telemetry JSON: expected section '" +
                                  expected_key + "', got '" + key + "'");
    }
    cursor.expect(':');
    cursor.expect('{');
  };

  parse_section("counters");
  while (cursor.peek() == '"') {
    const std::string name = cursor.parse_string();
    cursor.expect(':');
    out.counters.emplace_back(name, cursor.parse_count());
    if (!cursor.consume(',')) break;
  }
  cursor.expect('}');
  cursor.expect(',');

  parse_section("gauges");
  while (cursor.peek() == '"') {
    const std::string name = cursor.parse_string();
    cursor.expect(':');
    out.gauges.emplace_back(name, cursor.parse_number());
    if (!cursor.consume(',')) break;
  }
  cursor.expect('}');
  cursor.expect(',');

  parse_section("histograms");
  while (cursor.peek() == '"') {
    HistogramSnapshot h;
    h.name = cursor.parse_string();
    cursor.expect(':');
    cursor.expect('{');
    std::set<std::string> fields_seen;
    while (cursor.peek() == '"') {
      const std::string field = cursor.parse_string();
      fields_seen.insert(field);
      cursor.expect(':');
      if (field == "bounds" || field == "bucket_counts") {
        cursor.expect('[');
        while (cursor.peek() != ']') {
          if (field == "bounds") {
            h.bounds.push_back(cursor.parse_number());
          } else {
            h.bucket_counts.push_back(cursor.parse_count());
          }
          if (!cursor.consume(',')) break;
        }
        cursor.expect(']');
      } else if (field == "count") {
        h.count = cursor.parse_count();
      } else {
        const double value = cursor.parse_number();
        if (field == "sum") {
          h.sum = value;
        } else if (field == "min") {
          h.min = value;
        } else if (field == "max") {
          h.max = value;
        } else if (field == "p50") {
          h.p50 = value;
        } else if (field == "p95") {
          h.p95 = value;
        } else if (field == "p99") {
          h.p99 = value;
        } else {
          throw std::invalid_argument(
              "telemetry JSON: unknown histogram field '" + field + "'");
        }
      }
      if (!cursor.consume(',')) break;
    }
    cursor.expect('}');
    // Unknown fields threw above, so a short set means a missing field.
    if (fields_seen.size() != 9) {
      throw std::invalid_argument("telemetry JSON: histogram '" + h.name +
                                  "' lacks one of its nine fields");
    }
    out.histograms.push_back(std::move(h));
    if (!cursor.consume(',')) break;
  }
  cursor.expect('}');
  cursor.expect('}');
  cursor.expect_end();
  return out;
}

Telemetry& Telemetry::registry() {
  static Telemetry instance;
  return instance;
}

Counter& Telemetry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& Telemetry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& Telemetry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(default_bounds());
  return *slot;
}

TelemetrySnapshot Telemetry::snapshot() const {
  TelemetrySnapshot out;
  std::lock_guard<std::mutex> lock(mutex_);
  out.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    out.counters.emplace_back(name, counter->value());
  }
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    out.gauges.emplace_back(name, gauge->value());
  }
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    auto h = histogram->snapshot();
    h.name = name;
    out.histograms.push_back(std::move(h));
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(out.counters.begin(), out.counters.end(), by_name);
  std::sort(out.gauges.begin(), out.gauges.end(), by_name);
  std::sort(out.histograms.begin(), out.histograms.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  return out;
}

void Telemetry::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
}

ScopedTimer::ScopedTimer(Histogram& sink)
    : sink_(sink), start_ns_(steady_now_ns()) {}

ScopedTimer::~ScopedTimer() {
  const double elapsed_us =
      static_cast<double>(steady_now_ns() - start_ns_) / 1000.0;
  sink_.record(elapsed_us);
}

}  // namespace prc::telemetry
