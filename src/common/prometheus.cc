#include "common/prometheus.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "common/metrics_metadata.h"

namespace prc::telemetry::prometheus {

namespace {

bool ends_with(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

void append_double(std::ostringstream& out, double value) {
  if (std::isnan(value)) {
    out << "NaN";
    return;
  }
  if (std::isinf(value)) {
    out << (value > 0 ? "+Inf" : "-Inf");
    return;
  }
  // max_digits10 keeps render -> scrape -> float lossless, matching the
  // JSON snapshot precision.
  const auto previous = out.precision();
  out.precision(std::numeric_limits<double>::max_digits10);
  out << value;
  out.precision(previous);
}

std::string format_double(double value) {
  std::ostringstream out;
  append_double(out, value);
  return out.str();
}

// HELP text escaping per exposition format 0.0.4: backslash and newline.
std::string escape_help(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

// Emits the # HELP / # TYPE preamble for one family.  `dotted` is the
// registry name (metadata key), `family` the sanitized exposition name,
// `kind` the TYPE token derived from the snapshot section — the registry is
// the source of truth for the kind; the metadata gate in CI flags any
// disagreement with the .inc table.
void emit_family_header(std::ostringstream& out, const std::string& dotted,
                        const std::string& family, const char* kind) {
  const MetricMetadata* meta = find_metric_metadata(dotted);
  std::string help;
  if (meta != nullptr) {
    help = meta->help;
  } else {
    help = "(no registered metadata for " + dotted +
           "; add it to src/common/metrics_metadata.inc)";
  }
  out << "# HELP " << family << " " << escape_help(help) << "\n";
  out << "# TYPE " << family << " " << kind << "\n";
  if (meta != nullptr && meta->unit[0] != '\0') {
    // Plain comment (ignored by 0.0.4 parsers, OpenMetrics-shaped) so the
    // unit survives into scraped artifacts without a name change.
    out << "# UNIT " << family << " " << meta->unit << "\n";
  }
}

bool is_valid_name_char(char c, bool first) {
  if (std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == ':') {
    return true;
  }
  return !first && std::isdigit(static_cast<unsigned char>(c));
}

bool is_valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  for (std::size_t i = 0; i < name.size(); ++i) {
    if (!is_valid_name_char(name[i], i == 0)) return false;
  }
  return true;
}

[[noreturn]] void fail(std::size_t lineno, const std::string& message) {
  throw std::invalid_argument("prometheus exposition line " +
                              std::to_string(lineno) + ": " + message);
}

double parse_value(const std::string& token, std::size_t lineno) {
  if (token == "+Inf" || token == "Inf") {
    return std::numeric_limits<double>::infinity();
  }
  if (token == "-Inf") return -std::numeric_limits<double>::infinity();
  if (token == "NaN") return std::numeric_limits<double>::quiet_NaN();
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (token.empty() || end != token.c_str() + token.size()) {
    fail(lineno, "unparseable sample value `" + token + "`");
  }
  return value;
}

std::string strip(const std::string& text) {
  std::size_t begin = text.find_first_not_of(" \t\r");
  if (begin == std::string::npos) return "";
  std::size_t end = text.find_last_not_of(" \t\r");
  return text.substr(begin, end - begin + 1);
}

// Parses `name{key="value",...} value [timestamp]`.
ParsedSample parse_sample_line(const std::string& line, std::size_t lineno) {
  ParsedSample sample;
  std::size_t pos = 0;
  while (pos < line.size() && is_valid_name_char(line[pos], pos == 0)) {
    ++pos;
  }
  sample.name = line.substr(0, pos);
  if (!is_valid_metric_name(sample.name)) {
    fail(lineno, "invalid metric name in sample line `" + line + "`");
  }
  if (pos < line.size() && line[pos] == '{') {
    ++pos;
    while (pos < line.size() && line[pos] != '}') {
      std::size_t key_begin = pos;
      while (pos < line.size() && line[pos] != '=') ++pos;
      if (pos >= line.size()) fail(lineno, "unterminated label block");
      std::string key = strip(line.substr(key_begin, pos - key_begin));
      if (!is_valid_metric_name(key) || key.find(':') != std::string::npos) {
        fail(lineno, "invalid label name `" + key + "`");
      }
      ++pos;  // '='
      if (pos >= line.size() || line[pos] != '"') {
        fail(lineno, "label value must be double-quoted");
      }
      ++pos;
      std::string value;
      while (pos < line.size() && line[pos] != '"') {
        if (line[pos] == '\\' && pos + 1 < line.size()) {
          ++pos;
          if (line[pos] == 'n') {
            value += '\n';
          } else {
            value += line[pos];
          }
        } else {
          value += line[pos];
        }
        ++pos;
      }
      if (pos >= line.size()) fail(lineno, "unterminated label value");
      ++pos;  // closing '"'
      sample.labels.emplace_back(std::move(key), std::move(value));
      if (pos < line.size() && line[pos] == ',') ++pos;
      while (pos < line.size() && line[pos] == ' ') ++pos;
    }
    if (pos >= line.size()) fail(lineno, "unterminated label block");
    ++pos;  // '}'
  }
  std::istringstream rest(line.substr(pos));
  std::string value_token;
  if (!(rest >> value_token)) {
    fail(lineno, "sample line has no value: `" + line + "`");
  }
  sample.value = parse_value(value_token, lineno);
  std::string timestamp_token;
  if (rest >> timestamp_token) {
    char* end = nullptr;
    std::strtoll(timestamp_token.c_str(), &end, 10);
    if (end != timestamp_token.c_str() + timestamp_token.size()) {
      fail(lineno, "trailing garbage after sample value: `" +
                       timestamp_token + "`");
    }
    std::string extra;
    if (rest >> extra) fail(lineno, "trailing garbage after timestamp");
  }
  return sample;
}

bool sample_belongs_to(const ParsedFamily& family,
                       const std::string& sample_name) {
  if (sample_name == family.name) return true;
  if (family.type == "histogram" || family.type == "summary") {
    if (sample_name == family.name + "_sum") return true;
    if (sample_name == family.name + "_count") return true;
  }
  if (family.type == "histogram") {
    if (sample_name == family.name + "_bucket") return true;
  }
  return false;
}

void validate_histogram(const ParsedFamily& family) {
  double previous_le = -std::numeric_limits<double>::infinity();
  double previous_cumulative = -1.0;
  bool saw_inf = false;
  bool saw_sum = false;
  bool saw_count = false;
  double inf_bucket = 0.0;
  double count_value = 0.0;
  for (const auto& sample : family.samples) {
    if (sample.name == family.name + "_sum") {
      saw_sum = true;
      continue;
    }
    if (sample.name == family.name + "_count") {
      saw_count = true;
      count_value = sample.value;
      continue;
    }
    const std::string le = sample.label("le");
    if (le.empty()) {
      throw std::invalid_argument("histogram " + family.name +
                                  ": bucket sample without an le label");
    }
    const double le_value = parse_value(le, 0);
    if (!(le_value > previous_le)) {
      throw std::invalid_argument("histogram " + family.name +
                                  ": le buckets are not sorted ascending");
    }
    if (sample.value < previous_cumulative) {
      throw std::invalid_argument(
          "histogram " + family.name +
          ": bucket counts are not cumulative (le=\"" + le + "\" has " +
          format_double(sample.value) + " < previous bucket)");
    }
    previous_le = le_value;
    previous_cumulative = sample.value;
    if (std::isinf(le_value) && le_value > 0) {
      saw_inf = true;
      inf_bucket = sample.value;
    }
  }
  if (!saw_inf) {
    throw std::invalid_argument("histogram " + family.name +
                                ": missing le=\"+Inf\" bucket");
  }
  if (!saw_sum || !saw_count) {
    throw std::invalid_argument("histogram " + family.name +
                                ": missing _sum or _count series");
  }
  if (std::abs(inf_bucket - count_value) > 0.0) {
    throw std::invalid_argument(
        "histogram " + family.name + ": le=\"+Inf\" bucket (" +
        format_double(inf_bucket) + ") disagrees with _count (" +
        format_double(count_value) + ")");
  }
}

}  // namespace

std::string ParsedSample::label(const std::string& key) const {
  for (const auto& [label_name, label_value] : labels) {
    if (label_name == key) return label_value;
  }
  return "";
}

const ParsedFamily* ParsedExposition::find(const std::string& name) const {
  for (const auto& family : families) {
    if (family.name == name) return &family;
  }
  return nullptr;
}

std::string sanitize_metric_name(const std::string& name) {
  std::string out = "prc_";
  out.reserve(name.size() + 4);
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
        c == ':') {
      out += c;
    } else {
      out += '_';
    }
  }
  return out;
}

std::string family_name(const std::string& name, MetricKind kind) {
  std::string family = sanitize_metric_name(name);
  if (kind == MetricKind::kCounter && !ends_with(family, "_total")) {
    family += "_total";
  }
  return family;
}

std::string render(const TelemetrySnapshot& snapshot) {
  std::ostringstream out;
  for (const auto& [dotted, value] : snapshot.counters) {
    const std::string family = family_name(dotted, MetricKind::kCounter);
    emit_family_header(out, dotted, family, "counter");
    out << family << " " << value << "\n";
  }
  for (const auto& [dotted, value] : snapshot.gauges) {
    const std::string family = sanitize_metric_name(dotted);
    emit_family_header(out, dotted, family, "gauge");
    out << family << " " << format_double(value) << "\n";
  }
  for (const auto& histogram : snapshot.histograms) {
    const std::string family = sanitize_metric_name(histogram.name);
    emit_family_header(out, histogram.name, family, "histogram");
    std::uint64_t cumulative = 0;
    const std::size_t finite_buckets =
        histogram.bounds.size() < histogram.bucket_counts.size()
            ? histogram.bounds.size()
            : histogram.bucket_counts.size();
    for (std::size_t i = 0; i < finite_buckets; ++i) {
      cumulative += histogram.bucket_counts[i];
      out << family << "_bucket{le=\"" << format_double(histogram.bounds[i])
          << "\"} " << cumulative << "\n";
    }
    // The registry's overflow slot closes the gap to the total count.
    out << family << "_bucket{le=\"+Inf\"} " << histogram.count << "\n";
    out << family << "_sum " << format_double(histogram.sum) << "\n";
    out << family << "_count " << histogram.count << "\n";
  }
  return out.str();
}

ParsedExposition parse_exposition(const std::string& text) {
  ParsedExposition parsed;
  std::unordered_map<std::string, std::string> pending_help;
  std::unordered_map<std::string, std::size_t> family_index;
  ParsedFamily* current = nullptr;
  std::istringstream stream(text);
  std::string raw_line;
  std::size_t lineno = 0;
  while (std::getline(stream, raw_line)) {
    ++lineno;
    const std::string line = strip(raw_line);
    if (line.empty()) continue;
    if (line[0] == '#') {
      std::istringstream comment(line.substr(1));
      std::string keyword;
      comment >> keyword;
      if (keyword == "HELP") {
        std::string name;
        if (!(comment >> name) || !is_valid_metric_name(name)) {
          fail(lineno, "malformed HELP line");
        }
        std::string help;
        std::getline(comment, help);
        help = strip(help);
        auto found = family_index.find(name);
        if (found != family_index.end()) {
          parsed.families[found->second].help = help;
        } else {
          pending_help[name] = help;
        }
      } else if (keyword == "TYPE") {
        std::string name;
        std::string type;
        if (!(comment >> name >> type) || !is_valid_metric_name(name)) {
          fail(lineno, "malformed TYPE line");
        }
        if (type != "counter" && type != "gauge" && type != "histogram" &&
            type != "summary" && type != "untyped") {
          fail(lineno, "unknown metric type `" + type + "`");
        }
        if (family_index.count(name) != 0) {
          fail(lineno, "duplicate TYPE declaration for " + name);
        }
        ParsedFamily family;
        family.name = name;
        family.type = type;
        auto pending = pending_help.find(name);
        if (pending != pending_help.end()) {
          family.help = pending->second;
          pending_help.erase(pending);
        }
        family_index[name] = parsed.families.size();
        parsed.families.push_back(std::move(family));
        current = &parsed.families.back();
      }
      // Other comments (e.g. # UNIT) are ignored per the format.
      continue;
    }
    ParsedSample sample = parse_sample_line(line, lineno);
    if (current == nullptr || !sample_belongs_to(*current, sample.name)) {
      fail(lineno, "sample `" + sample.name +
                       "` does not belong to the preceding TYPE family" +
                       (current == nullptr ? " (no TYPE seen yet)"
                                           : " " + current->name));
    }
    current->samples.push_back(std::move(sample));
  }
  for (const auto& family : parsed.families) {
    if (family.help.empty()) {
      throw std::invalid_argument("family " + family.name +
                                  " has no HELP line");
    }
    if (family.samples.empty()) {
      throw std::invalid_argument("family " + family.name +
                                  " declared but has no samples");
    }
    if (family.type == "histogram") validate_histogram(family);
  }
  return parsed;
}

}  // namespace prc::telemetry::prometheus
