#include "retention/policy.hpp"

namespace adr::retention {

std::uint64_t purge_target_bytes(const fs::Vfs& vfs,
                                 double target_utilization) {
  if (target_utilization < 0.0) target_utilization = 0.0;
  const double target_used =
      target_utilization * static_cast<double>(vfs.capacity_bytes());
  const double used = static_cast<double>(vfs.total_bytes());
  if (used <= target_used) return 0;
  return static_cast<std::uint64_t>(used - target_used);
}

std::uint64_t retain_target_bytes(const fs::Vfs& vfs, double retain) {
  if (retain <= 0.0) return 0;
  return static_cast<std::uint64_t>(static_cast<double>(vfs.total_bytes()) *
                                    (1.0 - retain));
}

void fill_users_total(PurgeReport& report, const fs::Vfs& vfs,
                      const GroupOf& group_of) {
  for (const auto& [user, usage] : vfs.usage_by_user()) {
    if (usage.files == 0) continue;
    ++report.group(group_of(user)).users_total;
  }
}

void fill_retained_stats(PurgeReport& report, const fs::Vfs& vfs,
                         const GroupOf& group_of) {
  for (auto& g : report.by_group) {
    g.retained_bytes = 0;
    g.retained_files = 0;
  }
  for (const auto& [user, usage] : vfs.usage_by_user()) {
    if (usage.files == 0) continue;
    auto& g = report.group(group_of(user));
    g.retained_bytes += usage.bytes;
    g.retained_files += usage.files;
  }
}

}  // namespace adr::retention
