#include "trace/job_log.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "util/csv.hpp"
#include "util/io.hpp"
#include "util/parse.hpp"

namespace adr::trace {

void JobLog::add(JobRecord record) { records_.push_back(std::move(record)); }

void JobLog::sort_by_time() {
  std::stable_sort(records_.begin(), records_.end(),
                   [](const JobRecord& a, const JobRecord& b) {
                     return a.submit_time < b.submit_time;
                   });
}

void JobLog::assign_ids() {
  std::uint64_t next = 1;
  for (auto& r : records_) r.job_id = next++;
}

bool JobLog::is_sorted_by_time() const {
  return std::is_sorted(records_.begin(), records_.end(),
                        [](const JobRecord& a, const JobRecord& b) {
                          return a.submit_time < b.submit_time;
                        });
}

std::vector<JobRecord> JobLog::slice(util::TimePoint begin,
                                     util::TimePoint end) const {
  std::vector<JobRecord> out;
  for (const auto& r : records_) {
    if (r.submit_time >= begin && r.submit_time < end) out.push_back(r);
  }
  return out;
}

void JobLog::save_csv(const std::string& path) const {
  util::io::AtomicWriter writer(path,
                                {.fsync = util::io::default_fsync()});
  util::CsvWriter w(writer.stream());
  w.row("job_id", "user", "submit_time", "duration_s", "cores");
  for (const auto& r : records_) {
    w.row(r.job_id, r.user, r.submit_time, r.duration_seconds, r.cores);
  }
  writer.commit();
}

JobLog JobLog::load_csv(const std::string& path,
                        const util::ParseOptions& opts) {
  std::istringstream in(util::io::load_verified(path));
  util::CsvReader reader(in);
  if (!reader.read_header())
    throw std::runtime_error("JobLog: empty file " + path);
  JobLog log;
  const bool permissive = opts.policy == util::ParsePolicy::kPermissive;
  util::RowQuarantine quarantine(path, opts.quarantine_path);
  std::unordered_set<std::uint64_t> seen_ids;
  util::TimePoint prev_time = 0;
  bool first = true;
  while (auto row = reader.next()) {
    const util::RowContext ctx{&path, reader.line()};
    try {
      if (row->size() != 5) {
        throw util::ParseError("JobLog: " + path + ":" +
                               std::to_string(reader.line()) + ": expected 5 "
                               "columns, got " + std::to_string(row->size()));
      }
      JobRecord r;
      r.job_id = util::parse_u64((*row)[0], ctx, "job_id");
      r.user = static_cast<UserId>(util::parse_u32((*row)[1], ctx, "user"));
      r.submit_time = util::parse_i64((*row)[2], ctx, "submit_time");
      r.duration_seconds = util::parse_i64((*row)[3], ctx, "duration_s");
      r.cores = util::parse_i32((*row)[4], ctx, "cores");
      if (permissive) {
        if (r.job_id != 0 && !seen_ids.insert(r.job_id).second) {
          quarantine.add(reader.line(), util::RowQuarantine::kDuplicate,
                         "job_id " + (*row)[0] + " already seen",
                         reader.raw());
          continue;
        }
        if (!first && r.submit_time < prev_time) {
          quarantine.add(reader.line(), util::RowQuarantine::kOutOfOrder,
                         "submit_time regressed below previous row",
                         reader.raw());
          continue;
        }
      }
      prev_time = r.submit_time;
      first = false;
      log.add(std::move(r));
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
