#include "common/check.h"

namespace prc::contracts {

void raise_violation(const char* file, int line, const char* expression,
                     const std::string& detail) {
  std::string message = std::string("contract violated at ") + file + ':' +
                        std::to_string(line) + ": " + expression;
  if (!detail.empty()) {
    message += " — ";
    message += detail;
  }
  throw ContractViolation(message);
}

}  // namespace prc::contracts
