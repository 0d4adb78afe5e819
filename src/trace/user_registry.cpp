#include "trace/user_registry.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "util/csv.hpp"
#include "util/io.hpp"
#include "util/parse.hpp"

namespace adr::trace {

UserId UserRegistry::add(const std::string& name) {
  const auto it = by_name_.find(name);
  if (it != by_name_.end()) return it->second;
  const UserId id = static_cast<UserId>(names_.size());
  names_.push_back(name);
  by_name_.emplace(name, id);
  return id;
}

UserRegistry UserRegistry::with_synthetic_users(std::size_t n,
                                                const std::string& prefix) {
  UserRegistry reg;
  char buf[32];
  for (std::size_t i = 0; i < n; ++i) {
    std::snprintf(buf, sizeof(buf), "%05zu", i);
    reg.add(prefix + buf);
  }
  return reg;
}

const std::string& UserRegistry::name(UserId id) const {
  if (!contains(id)) throw std::out_of_range("UserRegistry: bad id");
  return names_[id];
}

UserId UserRegistry::find(const std::string& name) const {
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? kInvalidUser : it->second;
}

std::string UserRegistry::home_dir(UserId id) const {
  return "/scratch/" + name(id);
}

void UserRegistry::save_csv(const std::string& path) const {
  util::io::AtomicWriter writer(path,
                                {.fsync = util::io::default_fsync()});
  util::CsvWriter w(writer.stream());
  w.row("user", "name");
  for (std::size_t i = 0; i < names_.size(); ++i) w.row(i, names_[i]);
  writer.commit();
}

UserRegistry UserRegistry::load_csv(const std::string& path,
                                    const util::ParseOptions& opts) {
  std::istringstream in(util::io::load_verified(path));
  util::CsvReader reader(in);
  if (!reader.read_header())
    throw std::runtime_error("UserRegistry: empty file " + path);
  UserRegistry reg;
  const bool permissive = opts.policy == util::ParsePolicy::kPermissive;
  util::RowQuarantine quarantine(path, opts.quarantine_path);
  while (auto row = reader.next()) {
    const util::RowContext ctx{&path, reader.line()};
    try {
      if (row->size() != 2) {
        throw util::ParseError(
            "UserRegistry: " + path + ":" + std::to_string(reader.line()) +
            ": expected 2 columns, got " + std::to_string(row->size()));
      }
      const UserId expected =
          static_cast<UserId>(util::parse_u32((*row)[0], ctx, "user"));
      if ((*row)[1].empty()) {
        throw util::ParseError(ctx.describe("name") + ": empty user name");
      }
      if (permissive && reg.find((*row)[1]) != kInvalidUser) {
        quarantine.add(reader.line(), util::RowQuarantine::kDuplicate,
                       "name '" + (*row)[1] + "' already registered",
                       reader.raw());
        continue;
      }
      if (expected != reg.size()) {
        throw util::ParseError(ctx.describe("user") + ": non-dense id " +
                               (*row)[0] + " (expected " +
                               std::to_string(reg.size()) + ")");
      }
      reg.add((*row)[1]);
      if (opts.stats) ++opts.stats->rows_ok;
    } catch (const util::ParseError& e) {
      if (!permissive) throw;
      quarantine.add(reader.line(), util::RowQuarantine::kMalformed, e.what(),
                     reader.raw());
    }
  }
  quarantine.finish(opts.stats);
  return reg;
}

}  // namespace adr::trace
