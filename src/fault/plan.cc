#include "fault/plan.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.h"

namespace metaai::fault {
namespace {

// Non-finite values are malformed too: NaN passes every range check
// (each comparison with it is false) and an infinite drift or age makes
// the link's steering non-finite.
Result<double> ParseDouble(const std::string& key, const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0' || text.empty() ||
      !std::isfinite(value)) {
    return Error{ErrorCode::kParseError, "fault spec: bad numeric value for '" +
                                             key + "': '" + text + "'"};
  }
  return value;
}

// strtoull negates a leading '-' (so "-1" wraps to 2^64 - 1) and
// saturates out-of-range values with ERANGE; both are malformed seeds.
Result<std::uint64_t> ParseSeed(const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || text.empty() ||
      text.find('-') != std::string::npos || errno == ERANGE) {
    return Error{ErrorCode::kParseError,
                 "fault spec: bad seed '" + text + "'"};
  }
  return static_cast<std::uint64_t>(value);
}

Error RangeError(const std::string& what) {
  return Error{ErrorCode::kInvalidArgument, "fault spec: " + what};
}

}  // namespace

bool FaultPlan::Any() const {
  return stuck.fraction > 0.0 || chain.bit_flip_prob > 0.0 ||
         (drift.rate_std_rad_per_s > 0.0 && drift.age_s > 0.0) ||
         (burst.probability > 0.0 && burst.max_extra_us > 0.0);
}

Result<FaultPlan> TryParseFaultSpec(const std::string& spec) {
  FaultPlan plan;
  bool age_given = false;
  std::stringstream stream(spec);
  std::string item;
  while (std::getline(stream, item, ',')) {
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      return Error{ErrorCode::kParseError,
                   "fault spec: expected key=value, got '" + item + "'"};
    }
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "stuck") {
      Result<double> parsed = ParseDouble(key, value);
      if (!parsed.ok()) return parsed.error();
      plan.stuck.fraction = *parsed;
      if (plan.stuck.fraction < 0.0 || plan.stuck.fraction > 1.0) {
        return RangeError("stuck fraction must be in [0, 1]");
      }
    } else if (key == "chain") {
      Result<double> parsed = ParseDouble(key, value);
      if (!parsed.ok()) return parsed.error();
      plan.chain.bit_flip_prob = *parsed;
      if (plan.chain.bit_flip_prob < 0.0 || plan.chain.bit_flip_prob > 1.0) {
        return RangeError("chain bit-flip probability must be in [0, 1]");
      }
    } else if (key == "drift") {
      Result<double> parsed = ParseDouble(key, value);
      if (!parsed.ok()) return parsed.error();
      plan.drift.rate_std_rad_per_s = *parsed;
      if (plan.drift.rate_std_rad_per_s < 0.0) {
        return RangeError("drift rate std must be >= 0");
      }
    } else if (key == "age") {
      Result<double> parsed = ParseDouble(key, value);
      if (!parsed.ok()) return parsed.error();
      plan.drift.age_s = *parsed;
      if (plan.drift.age_s < 0.0) return RangeError("age must be >= 0");
      age_given = true;
    } else if (key == "burst") {
      const std::size_t colon = value.find(':');
      if (colon == std::string::npos) {
        return Error{ErrorCode::kParseError,
                     "fault spec: burst wants probability:max_extra_us"};
      }
      Result<double> probability = ParseDouble(key, value.substr(0, colon));
      if (!probability.ok()) return probability.error();
      Result<double> max_extra = ParseDouble(key, value.substr(colon + 1));
      if (!max_extra.ok()) return max_extra.error();
      plan.burst.probability = *probability;
      plan.burst.max_extra_us = *max_extra;
      if (plan.burst.probability < 0.0 || plan.burst.probability > 1.0) {
        return RangeError("burst probability must be in [0, 1]");
      }
      if (plan.burst.max_extra_us < 0.0) {
        return RangeError("burst max_extra_us must be >= 0");
      }
    } else if (key == "seed") {
      Result<std::uint64_t> parsed = ParseSeed(value);
      if (!parsed.ok()) return parsed.error();
      plan.seed = *parsed;
    } else {
      return Error{ErrorCode::kParseError,
                   "fault spec: unknown key '" + key + "'"};
    }
  }
  // A drift rate without an age would silently be a no-op; give it the
  // bench's default aging horizon instead.
  if (plan.drift.rate_std_rad_per_s > 0.0 && !age_given) {
    plan.drift.age_s = 60.0;
  }
  return plan;
}

std::string FaultSpecString(const FaultPlan& plan) {
  std::ostringstream out;
  if (plan.stuck.fraction > 0.0) out << "stuck=" << plan.stuck.fraction << ",";
  if (plan.chain.bit_flip_prob > 0.0) {
    out << "chain=" << plan.chain.bit_flip_prob << ",";
  }
  if (plan.drift.rate_std_rad_per_s > 0.0) {
    out << "drift=" << plan.drift.rate_std_rad_per_s << ",age=" << plan.drift.age_s
        << ",";
  }
  if (plan.burst.probability > 0.0) {
    out << "burst=" << plan.burst.probability << ":" << plan.burst.max_extra_us
        << ",";
  }
  out << "seed=" << plan.seed;
  return out.str();
}

}  // namespace metaai::fault
