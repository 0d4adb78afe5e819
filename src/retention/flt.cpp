#include "retention/flt.hpp"

#include <algorithm>
#include <string_view>
#include <utility>
#include <vector>

#include "fs/purge_index.hpp"
#include "obs/span.hpp"
#include "util/logging.hpp"

namespace adr::retention {

namespace {

/// The component at or after `pos` (empty at the end), as fs::split_path.
std::string_view next_component(std::string_view path, std::size_t& pos) {
  while (pos < path.size() && path[pos] == '/') ++pos;
  const std::size_t begin = pos;
  while (pos < path.size() && path[pos] != '/') ++pos;
  return path.substr(begin, pos - begin);
}

/// The order PathTrie::for_each visits paths: children are sorted by their
/// first component, so paths compare component by component and a path
/// precedes everything below it. Plain byte order differs wherever a
/// component is a prefix of a sibling ("/s/u1-x" vs "/s/u1/f").
bool trie_order_less(std::string_view a, std::string_view b) {
  std::size_t i = 0, j = 0;
  for (;;) {
    const std::string_view ca = next_component(a, i);
    const std::string_view cb = next_component(b, j);
    if (cb.empty()) return false;
    if (ca.empty()) return true;
    if (ca != cb) return ca < cb;
  }
}

}  // namespace

FltPolicy::FltPolicy(FltConfig config)
    : config_(config), group_of_([](trace::UserId) {
        return activeness::UserGroup::kBothInactive;
      }) {}

void FltPolicy::set_group_of(GroupOf group_of) {
  group_of_ = std::move(group_of);
}

std::string FltPolicy::name() const {
  return "FLT-" + std::to_string(config_.lifetime_days) + "d";
}

PurgeReport FltPolicy::run(fs::Vfs& vfs, util::TimePoint now,
                           std::uint64_t target_purge_bytes) const {
  PurgeReport report;
  report.policy = name();
  report.when = now;
  report.target_purge_bytes = target_purge_bytes;
  fill_users_total(report, vfs, group_of_);

  const util::Duration lifetime = util::days(config_.lifetime_days);
  const bool no_target = target_purge_bytes == 0;
  const fs::PurgeIndex& index = vfs.purge_index();

  struct Victim {
    fs::PathId id;
    trace::UserId owner;
    std::uint64_t size;
  };
  std::vector<Victim> victims;
  {
    obs::TimerSpan scan_span("policy.scan");
    for (const auto& oe : index.collect_expired_all(now - lifetime)) {
      victims.push_back({oe.entry.id, oe.owner, oe.entry.size_bytes});
    }
    // A target makes the order observable: purge in system scan order.
    if (!no_target) {
      std::sort(victims.begin(), victims.end(),
                [&index](const Victim& a, const Victim& b) {
                  return trie_order_less(index.path(a.id), index.path(b.id));
                });
    }
    report.phases.scan_seconds += scan_span.stop();
  }

  report.dry_run = config_.dry_run;
  const bool record = config_.dry_run || config_.record_victims;
  std::vector<bool> seen_user;  // affected-user dedup, indexed by UserId
  std::uint64_t remaining = target_purge_bytes;
  obs::TimerSpan apply_span("policy.apply");
  for (const auto& v : victims) {
    if (!no_target && remaining == 0) break;
    const std::string& path = index.path(v.id);
    if (record) report.victim_paths.push_back(path);
    if (!config_.dry_run) vfs.remove(path, v.owner);
    report.purged_bytes += v.size;
    ++report.purged_files;
    auto& g = report.group(group_of_(v.owner));
    g.purged_bytes += v.size;
    ++g.purged_files;
    if (v.owner != trace::kInvalidUser) {
      if (v.owner >= seen_user.size()) seen_user.resize(v.owner + 1, false);
      if (!seen_user[v.owner]) {
        seen_user[v.owner] = true;
        ++g.users_affected;
        report.affected_users.push_back(v.owner);
      }
    }
    if (!no_target) remaining -= std::min(remaining, v.size);
  }
  report.phases.apply_seconds += apply_span.stop();

  report.target_reached = no_target || remaining == 0;
  if (!report.target_reached) {
    ADR_INFO << report.policy << ": purge target not reached ("
             << remaining << " bytes short; only expired files are eligible)";
  }
  fill_retained_stats(report, vfs, group_of_);
  return report;
}

}  // namespace adr::retention
