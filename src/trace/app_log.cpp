#include "trace/app_log.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "util/csv.hpp"
#include "util/io.hpp"
#include "util/parse.hpp"

namespace adr::trace {

void AppLog::add(AppLogEntry entry) { entries_.push_back(std::move(entry)); }

void AppLog::sort_by_time() {
  std::stable_sort(entries_.begin(), entries_.end(),
                   [](const AppLogEntry& a, const AppLogEntry& b) {
                     return a.timestamp < b.timestamp;
                   });
}

bool AppLog::is_sorted_by_time() const {
  return std::is_sorted(entries_.begin(), entries_.end(),
                        [](const AppLogEntry& a, const AppLogEntry& b) {
                          return a.timestamp < b.timestamp;
                        });
}

std::pair<std::size_t, std::size_t> AppLog::range(util::TimePoint begin,
                                                  util::TimePoint end) const {
  const auto lo = std::lower_bound(
      entries_.begin(), entries_.end(), begin,
      [](const AppLogEntry& e, util::TimePoint t) { return e.timestamp < t; });
  const auto hi = std::lower_bound(
      lo, entries_.end(), end,
      [](const AppLogEntry& e, util::TimePoint t) { return e.timestamp < t; });
  return {static_cast<std::size_t>(lo - entries_.begin()),
          static_cast<std::size_t>(hi - entries_.begin())};
}

void AppLog::save_csv(const std::string& path) const {
  util::io::AtomicWriter writer(path,
                                {.fsync = util::io::default_fsync()});
  util::CsvWriter w(writer.stream());
  w.row("user", "timestamp", "op", "path", "size", "stripes");
  for (const auto& e : entries_) {
    w.row(e.user, e.timestamp,
          e.op == trace::FileOp::kCreate ? "create" : "access", e.path,
          e.size_bytes, e.stripe_count);
  }
  writer.commit();
}

AppLog AppLog::load_csv(const std::string& path,
                        const util::ParseOptions& opts) {
  std::istringstream in(util::io::load_verified(path));
  util::CsvReader reader(in);
  if (!reader.read_header())
    throw std::runtime_error("AppLog: empty file " + path);
  AppLog log;
  const bool permissive = opts.policy == util::ParsePolicy::kPermissive;
  util::RowQuarantine quarantine(path, opts.quarantine_path);
  std::string prev_raw;
  util::TimePoint prev_time = 0;
  bool first = true;
  while (auto row = reader.next()) {
    const util::RowContext ctx{&path, reader.line()};
    try {
      if (row->size() != 6) {
        throw util::ParseError("AppLog: " + path + ":" +
                               std::to_string(reader.line()) + ": expected 6 "
                               "columns, got " + std::to_string(row->size()));
      }
      AppLogEntry e;
      e.user = static_cast<UserId>(util::parse_u32((*row)[0], ctx, "user"));
      e.timestamp = util::parse_i64((*row)[1], ctx, "timestamp");
      if ((*row)[2] != "create" && (*row)[2] != "access") {
        throw util::ParseError(ctx.describe("op") +
                               ": expected create or access, got '" +
                               (*row)[2] + "'");
      }
      e.op = (*row)[2] == "create" ? FileOp::kCreate : FileOp::kAccess;
      e.path = (*row)[3];
      e.size_bytes = util::parse_u64((*row)[4], ctx, "size");
      e.stripe_count = util::parse_i32((*row)[5], ctx, "stripes");
      if (permissive) {
        // Site exports double-log lines often enough that adjacent exact
        // duplicates are quarantined; identical ops far apart are legal.
        if (!first && reader.raw() == prev_raw) {
          quarantine.add(reader.line(), util::RowQuarantine::kDuplicate,
                         "identical to previous row", reader.raw());
          continue;
        }
        if (!first && e.timestamp < prev_time) {
          quarantine.add(reader.line(), util::RowQuarantine::kOutOfOrder,
                         "timestamp regressed below previous row",
                         reader.raw());
          continue;
        }
      }
      prev_time = e.timestamp;
      prev_raw = reader.raw();
      first = false;
      log.add(std::move(e));
      if (opts.stats) ++opts.stats->rows_ok;
    } catch (const util::ParseError& e) {
      if (!permissive) throw;
      quarantine.add(reader.line(), util::RowQuarantine::kMalformed, e.what(),
                     reader.raw());
    }
  }
  quarantine.finish(opts.stats);
  return log;
}

}  // namespace adr::trace
