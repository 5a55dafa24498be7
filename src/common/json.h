// JSON string escaping shared by every JSON writer in the library: the
// telemetry snapshot, the Chrome trace and the audit timeline's JSONL.
#pragma once

#include <string>
#include <string_view>

namespace prc {

/// Escapes `text` for use inside a JSON string literal: quote and
/// backslash are backslash-escaped, newline and tab become \n and \t, and
/// every other control character becomes \u00XX, so the output is valid
/// JSON and no byte of the input is lost.
std::string json_escape(std::string_view text);

}  // namespace prc
