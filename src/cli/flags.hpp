#pragma once
// Shared flag parsing for the `activedr` subcommands. These used to live as
// file-local helpers in commands.cpp; the serve/feed/ctl commands (their
// own translation unit) read the same flags, so the parsers live here once.

#include <stdexcept>
#include <string>

#include "activeness/activity.hpp"
#include "activeness/sharded.hpp"
#include "util/config.hpp"
#include "util/time.hpp"

namespace adr::cli {

inline std::string require_str(const util::Config& config, const char* key) {
  const auto value = config.get(key);
  if (!value) throw std::runtime_error(std::string("missing --") + key);
  return *value;
}

inline util::TimePoint require_date(const util::Config& config,
                                    const char* key) {
  const auto value = config.get(key);
  if (!value) throw std::runtime_error(std::string("missing --") + key);
  util::TimePoint tp = 0;
  if (!util::parse_date(*value, tp)) {
    throw std::runtime_error(std::string("--") + key +
                             " must be YYYY-MM-DD, got: " + *value);
  }
  return tp;
}

inline activeness::EvalMode eval_mode_flag(const util::Config& config) {
  const std::string name = config.get_string("eval-mode", "incremental");
  activeness::EvalMode mode = activeness::EvalMode::kIncremental;
  if (!activeness::parse_eval_mode(name, mode)) {
    throw std::runtime_error("unknown --eval-mode: " + name +
                             " (expected full or incremental)");
  }
  return mode;
}

inline std::size_t eval_shards_flag(const util::Config& config) {
  const auto shards = config.get_int("shards", 0);
  if (shards < 0) {
    throw std::runtime_error("--shards must be >= 0 (0 = auto)");
  }
  return static_cast<std::size_t>(shards);
}

inline activeness::BackpressurePolicy backpressure_flag(
    const util::Config& config) {
  const std::string name = config.get_string("backpressure", "block");
  if (name == "block") return activeness::BackpressurePolicy::kBlock;
  if (name == "shed") return activeness::BackpressurePolicy::kShed;
  if (name == "spill") return activeness::BackpressurePolicy::kSpill;
  throw std::runtime_error("unknown --backpressure: " + name +
                           " (expected block, shed, or spill)");
}

}  // namespace adr::cli
