// Deliberately broken telemetry fixture for `prc_lint --self-test`.
//
// no-raw-to-sink must fire on every statement that pipes raw sensor data
// or an unperturbed estimate into the metrics registry (a telemetry::
// statement is an export sink), and must stay silent on the clean_*
// function that records only event counts and released values.  NOT
// compiled.

#include <cstddef>

#include "common/telemetry.h"

namespace prc_lint_fixture {

struct FakeAnswer {
  double sampled_estimate = 0.0;
  double value = 0.0;  // the released (perturbed) quantity
};

// no-raw-to-sink: the pre-noise estimate leaks through a gauge.
void leak_unperturbed_estimate(const FakeAnswer& answer) {
  prc::telemetry::gauge("dp.last_estimate").set(answer.sampled_estimate);
}

// no-raw-to-sink: a wrapped statement still leaks — the taint pass reads
// the whole statement up to the semicolon.
void leak_exact_count(double exact_count) {
  prc::telemetry::histogram("query.answer")
      .record(exact_count);
}

// Clean control: counts, sizes and the released value are fine.
void clean_telemetry_usage(const FakeAnswer& answer, std::size_t frames) {
  prc::telemetry::counter("iot.frames_delivered")
      .increment(frames);
  prc::telemetry::histogram("dp.released_value").record(answer.value);
}

}  // namespace prc_lint_fixture
