#include "common/args.h"

#include <iostream>
#include <sstream>
#include <stdexcept>

namespace prc {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

ArgParser& ArgParser::option(const std::string& key, const std::string& help) {
  specs_.emplace_back(key, Spec{help, false});
  return *this;
}

ArgParser& ArgParser::flag(const std::string& key, const std::string& help) {
  specs_.emplace_back(key, Spec{help, true});
  return *this;
}

bool ArgParser::parse(int argc, char** argv) {
  const auto find_spec = [this](const std::string& key) -> const Spec* {
    for (const auto& [name, spec] : specs_) {
      if (name == key) return &spec;
    }
    return nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << help();
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("expected --option, got '" + arg + "'");
    }
    const std::string key = arg.substr(2);
    const Spec* spec = find_spec(key);
    if (spec == nullptr) {
      throw std::invalid_argument("unknown option --" + key);
    }
    if (spec->is_flag) {
      // Built as a whole string and moved in: GCC 12 at -O3 misreports an
      // overlapping memcpy (-Wrestrict) in the inlined assign from "1".
      values_.insert_or_assign(key, std::string(1, '1'));
      continue;
    }
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for --" + key);
    }
    values_[key] = argv[++i];
  }
  return true;
}

bool ArgParser::has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::optional<std::string> ArgParser::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string ArgParser::get_or(const std::string& key,
                              const std::string& fallback) const {
  const auto value = get(key);
  return value ? *value : fallback;
}

double ArgParser::get_double(const std::string& key, double fallback) const {
  const auto value = get(key);
  if (!value) return fallback;
  try {
    std::size_t consumed = 0;
    const double parsed = std::stod(*value, &consumed);
    if (consumed != value->size()) throw std::invalid_argument("trailing");
    return parsed;
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + key + " expects a number, got '" +
                                *value + "'");
  }
}

std::uint64_t ArgParser::get_uint(const std::string& key,
                                  std::uint64_t fallback) const {
  const auto value = get(key);
  if (!value) return fallback;
  try {
    std::size_t consumed = 0;
    const auto parsed = std::stoull(*value, &consumed);
    if (consumed != value->size()) throw std::invalid_argument("trailing");
    return parsed;
  } catch (const std::exception&) {
    throw std::invalid_argument("--" + key +
                                " expects a non-negative integer, got '" +
                                *value + "'");
  }
}

std::string ArgParser::help() const {
  std::ostringstream out;
  out << program_ << " — " << description_ << "\n\noptions:\n";
  for (const auto& [name, spec] : specs_) {
    out << "  --" << name << (spec.is_flag ? "" : " <value>") << "\n      "
        << spec.help << "\n";
  }
  return out.str();
}

}  // namespace prc
