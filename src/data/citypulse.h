// Synthetic CityPulse-like pollution dataset.
//
// The paper evaluates on the CityPulse Smart City pollution dataset: 17,568
// records (5-minute cadence, 2014-08-01 00:05 .. 2014-10-01 00:00) each with
// five air-quality indexes.  The real export is not redistributable here, so
// this module generates a statistically similar substitute: per-index AQI
// levels in [0, 200] with diurnal and weekly cycles, slow seasonal drift,
// sensor-specific bias, bursty pollution episodes and heavy-ish measurement
// noise.  The experiments only depend on dataset cardinality and the shape of
// the per-index value distribution, which this preserves.  CSV load/store is
// provided so a real CityPulse export can be substituted via --csv.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "data/record.h"

namespace prc::data {

/// Generation knobs.  Defaults reproduce the paper's dataset shape.
struct CityPulseConfig {
  /// Number of records; the paper's export has 17,568 (= 61 days * 288/day).
  std::size_t record_count = 17568;
  /// Seconds between consecutive records (5 minutes).
  std::int64_t cadence_seconds = 300;
  /// Epoch of the first record: 2014-08-01T00:05:00Z.
  std::int64_t start_timestamp = 1406851500;
  /// Number of distinct road-side sensors contributing records round-robin.
  int sensor_count = 8;
  /// Master seed; every derived stream is a split of this.
  std::uint64_t seed = 20140801;
};

/// Deterministic generator for the synthetic dataset.
class CityPulseGenerator {
 public:
  explicit CityPulseGenerator(CityPulseConfig config = {});

  /// Generates the full record sequence.  Deterministic in the config seed.
  std::vector<AirQualityRecord> generate() const;

 private:
  CityPulseConfig config_;
};

/// Serializes records to the CSV schema
/// `timestamp,sensor_id,ozone,particulate_matter,carbon_monoxide,
///  sulfur_dioxide,nitrogen_dioxide`.
void write_records_csv(const std::vector<AirQualityRecord>& records,
                       const std::string& path);

/// Loads records from a CSV with the schema above (extra columns ignored).
/// Also accepts the REAL CityPulse export verbatim, which differs in three
/// ways this loader absorbs:
///   - header spellings `particullate_matter` and `sulfure_dioxide`
///     (the upstream dataset's typos) alias the canonical names,
///   - `timestamp` may be a `YYYY-MM-DD HH:MM:SS` datetime string instead
///     of epoch seconds,
///   - `sensor_id` may be absent (defaults to 0; the export is per-sensor
///     files).
/// Throws std::invalid_argument if any required column is missing under
/// either spelling, a timestamp is unparseable or a reading is not a finite
/// number (the message names the data row, counted from 0, the column and
/// the text).
std::vector<AirQualityRecord> read_records_csv(const std::string& path);

/// Parses either epoch seconds ("1406851500") or a CityPulse datetime
/// ("2014-08-01 00:05:00", interpreted as UTC).  Throws
/// std::invalid_argument on any other shape.
std::int64_t parse_citypulse_timestamp(const std::string& text);

}  // namespace prc::data
