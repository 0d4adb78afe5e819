#include "trace/publication_log.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "util/csv.hpp"
#include "util/io.hpp"
#include "util/parse.hpp"

namespace adr::trace {

void PublicationLog::add(PublicationRecord record) {
  records_.push_back(std::move(record));
}

void PublicationLog::sort_by_time() {
  std::stable_sort(records_.begin(), records_.end(),
                   [](const PublicationRecord& a, const PublicationRecord& b) {
                     return a.published < b.published;
                   });
}

void PublicationLog::save_csv(const std::string& path) const {
  util::io::AtomicWriter writer(path,
                                {.fsync = util::io::default_fsync()});
  util::CsvWriter w(writer.stream());
  w.row("pub_id", "published", "citations", "authors");
  for (const auto& r : records_) {
    std::string authors;
    for (std::size_t i = 0; i < r.authors.size(); ++i) {
      if (i) authors.push_back(';');
      authors += std::to_string(r.authors[i]);
    }
    w.row(r.pub_id, r.published, r.citations, authors);
  }
  writer.commit();
}

PublicationLog PublicationLog::load_csv(const std::string& path,
                                        const util::ParseOptions& opts) {
  std::istringstream in(util::io::load_verified(path));
  util::CsvReader reader(in);
  if (!reader.read_header())
    throw std::runtime_error("PublicationLog: empty file " + path);
  PublicationLog log;
  const bool permissive = opts.policy == util::ParsePolicy::kPermissive;
  util::RowQuarantine quarantine(path, opts.quarantine_path);
  std::unordered_set<std::uint64_t> seen_ids;
  util::TimePoint prev_time = 0;
  bool first = true;
  while (auto row = reader.next()) {
    const util::RowContext ctx{&path, reader.line()};
    try {
      if (row->size() != 4) {
        throw util::ParseError(
            "PublicationLog: " + path + ":" + std::to_string(reader.line()) +
            ": expected 4 columns, got " + std::to_string(row->size()));
      }
      PublicationRecord r;
      r.pub_id = util::parse_u64((*row)[0], ctx, "pub_id");
      r.published = util::parse_i64((*row)[1], ctx, "published");
      r.citations = util::parse_i32((*row)[2], ctx, "citations");
      std::istringstream authors((*row)[3]);
      std::string tok;
      while (std::getline(authors, tok, ';')) {
        if (!tok.empty()) {
          r.authors.push_back(
              static_cast<UserId>(util::parse_u32(tok, ctx, "authors")));
        }
      }
      if (permissive) {
        if (r.pub_id != 0 && !seen_ids.insert(r.pub_id).second) {
          quarantine.add(reader.line(), util::RowQuarantine::kDuplicate,
                         "pub_id " + (*row)[0] + " already seen",
                         reader.raw());
          continue;
        }
        if (!first && r.published < prev_time) {
          quarantine.add(reader.line(), util::RowQuarantine::kOutOfOrder,
                         "published regressed below previous row",
                         reader.raw());
          continue;
        }
      }
      prev_time = r.published;
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
