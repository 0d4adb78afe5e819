#include "util/parse.hpp"

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <string_view>

#include "obs/metrics.hpp"
#include "util/csv.hpp"
#include "util/logging.hpp"

namespace adr::util {

std::string RowContext::describe(const char* column) const {
  std::string where = file ? *file : std::string("<input>");
  if (line > 0) {
    where.push_back(':');
    where.append(std::to_string(line));
  }
  where.append(": column '");
  where.append(column);
  where.push_back('\'');
  return where;
}

namespace {

[[noreturn]] void fail(const std::string& value, const RowContext& ctx,
                       const char* column, const char* what) {
  throw ParseError(ctx.describe(column) + ": " + what + ": '" + value + "'");
}

template <typename T>
T parse_int(const std::string& s, const RowContext& ctx, const char* column,
            const char* kind) {
  T value{};
  const char* begin = s.data();
  const char* end = begin + s.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec == std::errc::result_out_of_range) {
    fail(s, ctx, column, "value out of range");
  }
  if (ec != std::errc() || ptr != end || s.empty()) {
    fail(s, ctx, column, kind);
  }
  return value;
}

}  // namespace

std::uint64_t parse_u64(const std::string& s, const RowContext& ctx,
                        const char* column) {
  return parse_int<std::uint64_t>(s, ctx, column, "invalid unsigned integer");
}

std::int64_t parse_i64(const std::string& s, const RowContext& ctx,
                       const char* column) {
  return parse_int<std::int64_t>(s, ctx, column, "invalid integer");
}

std::uint32_t parse_u32(const std::string& s, const RowContext& ctx,
                        const char* column) {
  return parse_int<std::uint32_t>(s, ctx, column, "invalid unsigned integer");
}

int parse_i32(const std::string& s, const RowContext& ctx,
              const char* column) {
  return parse_int<int>(s, ctx, column, "invalid integer");
}

double parse_f64(const std::string& s, const RowContext& ctx,
                 const char* column) {
  // strtod instead of from_chars<double>: full-string check is explicit and
  // older libstdc++ floating-point from_chars coverage is spotty.
  if (s.empty()) fail(s, ctx, column, "invalid number");
  char* tail = nullptr;
  errno = 0;
  const double value = std::strtod(s.c_str(), &tail);
  if (tail != s.c_str() + s.size()) fail(s, ctx, column, "invalid number");
  if (errno == ERANGE) fail(s, ctx, column, "value out of range");
  return value;
}

const char* to_string(ParsePolicy policy) {
  switch (policy) {
    case ParsePolicy::kStrict: return "strict";
    case ParsePolicy::kPermissive: return "permissive";
  }
  return "?";
}

bool parse_parse_policy(const std::string& text, ParsePolicy& out) {
  if (text == "strict") {
    out = ParsePolicy::kStrict;
  } else if (text == "permissive") {
    out = ParsePolicy::kPermissive;
  } else {
    return false;
  }
  return true;
}

LoadStats& LoadStats::operator+=(const LoadStats& other) {
  rows_ok += other.rows_ok;
  malformed += other.malformed;
  out_of_order += other.out_of_order;
  duplicates += other.duplicates;
  if (quarantine_path.empty()) quarantine_path = other.quarantine_path;
  return *this;
}

namespace {

obs::Counter& reason_counter(const char* reason) {
  // Three fixed reasons -> three cached references (hot-path convention from
  // obs/metrics.hpp: resolve once, update forever).
  auto& registry = obs::MetricsRegistry::global();
  if (std::string_view(reason) == RowQuarantine::kOutOfOrder) {
    static obs::Counter& c =
        registry.counter("ingest.quarantined.out_of_order");
    return c;
  }
  if (std::string_view(reason) == RowQuarantine::kDuplicate) {
    static obs::Counter& c = registry.counter("ingest.quarantined.duplicate");
    return c;
  }
  static obs::Counter& c = registry.counter("ingest.quarantined.malformed");
  return c;
}

obs::Counter& quarantine_files_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("ingest.quarantine_files");
  return c;
}

}  // namespace

RowQuarantine::RowQuarantine(std::string input_path, std::string sidecar_path)
    : input_path_(std::move(input_path)),
      sidecar_path_(std::move(sidecar_path)) {
  if (sidecar_path_.empty()) sidecar_path_ = input_path_ + ".quarantine";
}

RowQuarantine::~RowQuarantine() = default;

void RowQuarantine::add(std::size_t line, const char* reason,
                        const std::string& detail,
                        const std::string& raw_row) {
  if (!out_) {
    out_ = std::make_unique<std::ofstream>(sidecar_path_, std::ios::trunc);
    if (!*out_) {
      throw std::runtime_error("RowQuarantine: cannot write " +
                               sidecar_path_);
    }
    writer_ = std::make_unique<CsvWriter>(*out_);
    writer_->row("line", "reason", "detail", "row");
    quarantine_files_counter().add();
  }
  writer_->row(line, reason, detail, raw_row);
  ++count_;
  reason_counter(reason).add();
  if (std::string_view(reason) == kOutOfOrder) {
    ++out_of_order_;
  } else if (std::string_view(reason) == kDuplicate) {
    ++duplicates_;
  } else {
    ++malformed_;
  }
  ADR_DEBUG << "ingest: quarantined " << input_path_ << ":" << line << " ("
            << reason << "): " << detail;
}

void RowQuarantine::finish(LoadStats* stats) const {
  if (count_ > 0) {
    ADR_WARN << "ingest: " << count_ << " rows of " << input_path_
             << " quarantined to " << sidecar_path_;
  }
  if (!stats) return;
  LoadStats mine;
  mine.malformed = malformed_;
  mine.out_of_order = out_of_order_;
  mine.duplicates = duplicates_;
  if (count_ > 0) mine.quarantine_path = sidecar_path_;
  *stats += mine;
}

}  // namespace adr::util
