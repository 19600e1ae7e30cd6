#include "transport/handler.h"

#include <string>

#include "common/error.h"

namespace smi::transport {

const char* HandlerClassName(HandlerClass cls) {
  switch (cls) {
    case HandlerClass::kReduceCombine: return "reduce-combine";
    case HandlerClass::kFanOut: return "fan-out";
  }
  return "?";
}

void HandlerTable::Validate(int num_ranks) const {
  for (const HandlerEntry& e : entries_) {
    const std::string where = std::string(HandlerClassName(e.cls)) +
                              " handler on port " + std::to_string(e.port);
    if (e.port < 0) throw ConfigError(where + ": negative port");
    switch (e.cls) {
      case HandlerClass::kReduceCombine:
        if (e.combine == nullptr) {
          throw ConfigError(where + ": missing combine function");
        }
        if (e.hold_cycles < 1) {
          throw ConfigError(where + ": hold window must be >= 1 cycle");
        }
        if (e.max_contribs < 0) {
          throw ConfigError(where + ": negative max_contribs");
        }
        break;
      case HandlerClass::kFanOut:
        if (e.fan_dsts.empty()) {
          throw ConfigError(where + ": fan-out entry with no children");
        }
        for (const int d : e.fan_dsts) {
          if (d < 0 || d >= num_ranks) {
            throw ConfigError(where + ": fan child rank " +
                              std::to_string(d) + " out of range");
          }
        }
        break;
    }
  }
}

}  // namespace smi::transport
