#include "data/citypulse.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/csv.h"
#include "common/distributions.h"

namespace prc::data {
namespace {

constexpr double kTwoPi = 2.0 * 3.14159265358979323846;
constexpr double kSecondsPerDay = 86400.0;
constexpr double kSecondsPerWeek = 7.0 * kSecondsPerDay;

/// Static per-index climatology: baseline level, diurnal amplitude, weekly
/// amplitude, episode proneness and noise scale, loosely matching typical AQI
/// sub-index behaviour (ozone peaks midday; NO2/CO peak at rush hours; PM
/// episodic; SO2 low and flat).
struct IndexProfile {
  double base;
  double diurnal_amp;
  double diurnal_phase;  // fraction of a day where the peak sits
  double weekly_amp;
  double episode_rate;   // per-record probability an episode starts
  double episode_boost;  // mean added level during an episode
  double noise_sigma;
};

constexpr IndexProfile profile_for(AirQualityIndex index) {
  switch (index) {
    case AirQualityIndex::kOzone:
      return {70.0, 30.0, 0.58, 4.0, 0.0006, 35.0, 8.0};
    case AirQualityIndex::kParticulateMatter:
      return {55.0, 12.0, 0.35, 6.0, 0.0012, 60.0, 10.0};
    case AirQualityIndex::kCarbonMonoxide:
      return {40.0, 18.0, 0.33, 8.0, 0.0008, 25.0, 6.0};
    case AirQualityIndex::kSulfurDioxide:
      return {25.0, 6.0, 0.45, 3.0, 0.0004, 20.0, 4.0};
    case AirQualityIndex::kNitrogenDioxide:
      return {60.0, 25.0, 0.36, 10.0, 0.0009, 30.0, 7.0};
  }
  return {50.0, 10.0, 0.5, 5.0, 0.001, 30.0, 5.0};
}

}  // namespace

CityPulseGenerator::CityPulseGenerator(CityPulseConfig config)
    : config_(config) {}

std::vector<AirQualityRecord> CityPulseGenerator::generate() const {
  Rng master(config_.seed);
  Rng noise_rng = master.split();
  Rng episode_rng = master.split();
  Rng sensor_rng = master.split();

  // Fixed per-sensor, per-index additive bias (calibration differences).
  std::vector<std::array<double, kAirQualityIndexCount>> sensor_bias(
      static_cast<std::size_t>(std::max(config_.sensor_count, 1)));
  for (auto& biases : sensor_bias) {
    for (double& b : biases) b = sample_normal(sensor_rng, 0.0, 3.0);
  }

  // Episode state per index: remaining records and current boost.
  struct Episode {
    std::size_t remaining = 0;
    double boost = 0.0;
  };
  std::array<Episode, kAirQualityIndexCount> episodes{};

  std::vector<AirQualityRecord> records;
  records.reserve(config_.record_count);
  const double total_span =
      static_cast<double>(config_.record_count) *
      static_cast<double>(config_.cadence_seconds);

  for (std::size_t r = 0; r < config_.record_count; ++r) {
    AirQualityRecord record;
    record.timestamp = config_.start_timestamp +
                       static_cast<std::int64_t>(r) * config_.cadence_seconds;
    record.sensor_id =
        static_cast<int>(r % static_cast<std::size_t>(
                                 std::max(config_.sensor_count, 1)));
    const double t = static_cast<double>(record.timestamp -
                                         config_.start_timestamp);
    const double day_frac = std::fmod(t, kSecondsPerDay) / kSecondsPerDay;
    const double week_frac = std::fmod(t, kSecondsPerWeek) / kSecondsPerWeek;
    const double season_frac = total_span > 0.0 ? t / total_span : 0.0;
    // The weekly cycle and the slow seasonal drift over the two-month
    // window depend on the timestamp only, not on the index.
    const double week_sine = std::sin(kTwoPi * week_frac);
    const double season_drift = 8.0 * std::sin(kTwoPi * season_frac / 2.0);

    for (std::size_t idx = 0; idx < kAirQualityIndexCount; ++idx) {
      const auto profile = profile_for(static_cast<AirQualityIndex>(idx));
      auto& episode = episodes[idx];
      if (episode.remaining == 0 && episode_rng.bernoulli(profile.episode_rate)) {
        // Episodes last 2-12 hours (24-144 records at 5-min cadence).
        episode.remaining =
            static_cast<std::size_t>(episode_rng.uniform_int(24, 144));
        episode.boost =
            profile.episode_boost * (0.5 + episode_rng.uniform());
      }
      double level = profile.base;
      level += profile.diurnal_amp *
               std::sin(kTwoPi * (day_frac - profile.diurnal_phase + 0.25));
      level += profile.weekly_amp * week_sine;
      level += season_drift;
      if (episode.remaining > 0) {
        level += episode.boost;
        --episode.remaining;
      }
      level += sensor_bias[static_cast<std::size_t>(record.sensor_id)][idx];
      level += sample_normal(noise_rng, 0.0, profile.noise_sigma);
      record.values[idx] = std::clamp(level, 0.0, 200.0);
    }
    records.push_back(record);
  }
  return records;
}

void write_records_csv(const std::vector<AirQualityRecord>& records,
                       const std::string& path) {
  std::vector<std::string> header = {"timestamp", "sensor_id"};
  for (auto index : kAllAirQualityIndexes) {
    header.emplace_back(index_name(index));
  }
  CsvTable table(std::move(header));
  for (const auto& record : records) {
    std::vector<std::string> row;
    row.reserve(2 + kAirQualityIndexCount);
    row.push_back(std::to_string(record.timestamp));
    row.push_back(std::to_string(record.sensor_id));
    for (double v : record.values) {
      // Fixed 6-digit precision keeps the round-trip lossless enough for the
      // experiments while staying compact.
      char buffer[64];
      std::snprintf(buffer, sizeof(buffer), "%.6f", v);
      row.emplace_back(buffer);
    }
    table.add_row(std::move(row));
  }
  write_csv_file(table, path);
}

std::int64_t parse_citypulse_timestamp(const std::string& text) {
  // Epoch seconds.
  if (!text.empty() &&
      text.find_first_not_of("0123456789-") == std::string::npos &&
      text.find('-', 1) == std::string::npos) {
    return std::stoll(text);
  }
  // "YYYY-MM-DD HH:MM:SS" (the real export's shape), treated as UTC.
  int year, month, day, hour, minute, second;
  if (std::sscanf(text.c_str(), "%d-%d-%d %d:%d:%d", &year, &month, &day,
                  &hour, &minute, &second) != 6) {
    throw std::invalid_argument("citypulse csv: unparseable timestamp '" +
                                text + "'");
  }
  if (month < 1 || month > 12 || day < 1 || day > 31 || hour < 0 ||
      hour > 23 || minute < 0 || minute > 59 || second < 0 || second > 60) {
    throw std::invalid_argument("citypulse csv: timestamp out of range '" +
                                text + "'");
  }
  // Days since the epoch via the standard civil-date algorithm
  // (Howard Hinnant's days_from_civil), avoiding timezone-dependent mktime.
  const int y = year - (month <= 2 ? 1 : 0);
  const int era = (y >= 0 ? y : y - 399) / 400;
  const unsigned yoe = static_cast<unsigned>(y - era * 400);
  const unsigned doy = static_cast<unsigned>(
      (153 * (month + (month > 2 ? -3 : 9)) + 2) / 5 + day - 1);
  const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  const std::int64_t days =
      static_cast<std::int64_t>(era) * 146097 +
      static_cast<std::int64_t>(doe) - 719468;
  return days * 86400 + hour * 3600 + minute * 60 + second;
}

std::vector<AirQualityRecord> read_records_csv(const std::string& path) {
  const CsvTable table = read_csv_file(path);
  // The real export misspells two column names; accept both spellings.
  const auto find_any =
      [&table](std::initializer_list<std::string_view> names)
      -> std::optional<std::size_t> {
    for (auto name : names) {
      if (auto idx = table.column_index(name)) return idx;
    }
    return std::nullopt;
  };
  const auto require =
      [&](std::initializer_list<std::string_view> names) {
        auto idx = find_any(names);
        if (!idx) {
          throw std::invalid_argument("citypulse csv: missing column '" +
                                      std::string(*names.begin()) + "'");
        }
        return *idx;
      };
  const std::size_t ts_col = require({"timestamp"});
  const auto sensor_col = find_any({"sensor_id"});  // absent in the export
  std::array<std::size_t, kAirQualityIndexCount> value_cols{};
  value_cols[static_cast<std::size_t>(AirQualityIndex::kOzone)] =
      require({"ozone"});
  value_cols[static_cast<std::size_t>(AirQualityIndex::kParticulateMatter)] =
      require({"particulate_matter", "particullate_matter"});
  value_cols[static_cast<std::size_t>(AirQualityIndex::kCarbonMonoxide)] =
      require({"carbon_monoxide"});
  value_cols[static_cast<std::size_t>(AirQualityIndex::kSulfurDioxide)] =
      require({"sulfur_dioxide", "sulfure_dioxide"});
  value_cols[static_cast<std::size_t>(AirQualityIndex::kNitrogenDioxide)] =
      require({"nitrogen_dioxide"});

  std::vector<AirQualityRecord> records;
  records.reserve(table.row_count());
  for (std::size_t r = 0; r < table.row_count(); ++r) {
    const auto reject = [&table, r](std::size_t c, const char* problem) {
      throw std::invalid_argument("citypulse csv: row " + std::to_string(r) +
                                  ", column '" + table.header()[c] + "': " +
                                  problem + " '" + table.field(r, c) + "'");
    };
    AirQualityRecord record;
    record.timestamp = parse_citypulse_timestamp(table.field(r, ts_col));
    if (sensor_col) {
      const double id = table.field_as_double(r, *sensor_col);
      // Casting a double outside int's range (or nan) is undefined.
      if (!(id == std::trunc(id) &&
            id >= std::numeric_limits<int>::min() &&
            id <= std::numeric_limits<int>::max())) {
        reject(*sensor_col, "non-integral or out-of-range sensor id");
      }
      record.sensor_id = static_cast<int>(id);
    }
    for (std::size_t idx = 0; idx < kAirQualityIndexCount; ++idx) {
      const std::size_t c = value_cols[idx];
      record.values[idx] = table.field_as_double(r, c);
      // from_chars accepts "nan" and "inf"; a reading must be a number.
      if (!std::isfinite(record.values[idx])) reject(c, "non-finite reading");
    }
    records.push_back(record);
  }
  return records;
}

}  // namespace prc::data
