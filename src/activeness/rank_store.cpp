#include "activeness/rank_store.hpp"

#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/csv.hpp"
#include "util/io.hpp"
#include "util/parse.hpp"

namespace adr::activeness {

RankStore::RankStore(std::vector<UserActiveness> users)
    : users_(std::move(users)) {
  reindex();
}

void RankStore::reindex() {
  index_.clear();
  for (std::size_t i = 0; i < users_.size(); ++i) {
    const trace::UserId u = users_[i].user;
    if (u == trace::kInvalidUser) continue;
    if (u >= index_.size()) index_.resize(u + 1, 0);
    index_[u] = i + 1;
  }
}

void RankStore::set(const UserActiveness& ua) {
  if (ua.user == trace::kInvalidUser)
    throw std::invalid_argument("RankStore: invalid user");
  if (ua.user < index_.size() && index_[ua.user] != 0) {
    users_[index_[ua.user] - 1] = ua;
    return;
  }
  users_.push_back(ua);
  if (ua.user >= index_.size()) index_.resize(ua.user + 1, 0);
  index_[ua.user] = users_.size();
}

UserActiveness RankStore::get(trace::UserId user) const {
  if (user < index_.size() && index_[user] != 0) return users_[index_[user] - 1];
  UserActiveness fresh;
  fresh.user = user;
  return fresh;
}

bool RankStore::contains(trace::UserId user) const {
  return user < index_.size() && index_[user] != 0;
}

std::array<std::size_t, kGroupCount> RankStore::group_counts() const {
  std::array<std::size_t, kGroupCount> counts{};
  for (const auto& ua : users_) {
    ++counts[static_cast<std::size_t>(classify(ua))];
  }
  return counts;
}

void RankStore::save_csv(const std::string& path) const {
  util::io::AtomicWriter writer(path,
                                {.fsync = util::io::default_fsync()});
  util::CsvWriter w(writer.stream());
  w.row("user", "op_has_data", "op_zero", "op_log_phi", "oc_has_data",
        "oc_zero", "oc_log_phi", "last_activity");
  for (const auto& ua : users_) {
    // log_phi keeps std::to_string's fixed six decimals in this file.
    w.row(ua.user, ua.op.has_data ? "1" : "0", ua.op.zero ? "1" : "0",
          std::to_string(static_cast<double>(ua.op.log_phi)),
          ua.oc.has_data ? "1" : "0", ua.oc.zero ? "1" : "0",
          std::to_string(static_cast<double>(ua.oc.log_phi)),
          ua.last_activity);
  }
  writer.commit();
}

namespace {

RankStore parse_store(const std::string& content, const std::string& path) {
  std::istringstream in(content);
  util::CsvReader reader(in);
  if (!reader.read_header())
    throw std::runtime_error("RankStore: empty file " + path);
  std::vector<UserActiveness> users;
  while (auto row = reader.next()) {
    const util::RowContext ctx{&path, reader.line()};
    if (row->size() != 8) {
      throw util::ParseError("RankStore: " + path + ":" +
                             std::to_string(reader.line()) +
                             ": expected 8 columns, got " +
                             std::to_string(row->size()));
    }
    UserActiveness ua;
    ua.user = static_cast<trace::UserId>(util::parse_u32((*row)[0], ctx, "user"));
    ua.op.has_data = (*row)[1] == "1";
    ua.op.zero = (*row)[2] == "1";
    ua.op.log_phi = util::parse_f64((*row)[3], ctx, "op_log_phi");
    ua.oc.has_data = (*row)[4] == "1";
    ua.oc.zero = (*row)[5] == "1";
    ua.oc.log_phi = util::parse_f64((*row)[6], ctx, "oc_log_phi");
    ua.last_activity = util::parse_i64((*row)[7], ctx, "last_activity");
    users.push_back(ua);
  }
  return RankStore(std::move(users));
}

}  // namespace

RankStore RankStore::load_csv(const std::string& path) {
  return parse_store(util::io::load_verified(path), path);
}

RankStoreLoadResult RankStore::try_load_csv(const std::string& path) {
  RankStoreLoadResult result;
  util::io::Artifact artifact;
  try {
    artifact = util::io::read_artifact(path);
  } catch (const std::exception& e) {
    result.error = e.what();  // missing / unreadable: nothing to quarantine
    return result;
  }
  if (artifact.state == util::io::ArtifactState::kCorrupt) {
    result.error = artifact.error;
    result.quarantined_to = util::io::quarantine(path, artifact.error);
    return result;
  }
  try {
    result.store = parse_store(artifact.content, path);
    result.ok = true;
  } catch (const std::exception& e) {
    // CRC-clean but semantically unparseable (legacy damage, hand edits):
    // still refuse to act on it, and move it out of the way.
    result.error = e.what();
    result.quarantined_to = util::io::quarantine(path, e.what());
    static obs::Counter& failures =
        obs::MetricsRegistry::global().counter("rank_store.load_failures");
    failures.add();
  }
  return result;
}

}  // namespace adr::activeness
