#include "activeness/sharded.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <iterator>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/thread_pool.hpp"

namespace adr::activeness {

const char* to_string(EvalMode mode) {
  switch (mode) {
    case EvalMode::kIncremental: return "incremental";
    case EvalMode::kFull: return "full";
  }
  return "?";
}

bool parse_eval_mode(const std::string& text, EvalMode& out) {
  if (text == "incremental") {
    out = EvalMode::kIncremental;
  } else if (text == "full") {
    out = EvalMode::kFull;
  } else {
    return false;
  }
  return true;
}

namespace {

obs::Counter& counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name);
}

obs::Counter& advances_counter() {
  static obs::Counter& c = counter("incremental.advances");
  return c;
}

obs::Counter& full_rebuilds_counter() {
  static obs::Counter& c = counter("incremental.full_rebuilds");
  return c;
}

obs::Counter& users_dirty_counter() {
  static obs::Counter& c = counter("incremental.users_dirty");
  return c;
}

obs::Counter& users_reevaluated_counter() {
  static obs::Counter& c = counter("incremental.users_reevaluated");
  return c;
}

obs::Counter& users_skipped_counter() {
  static obs::Counter& c = counter("incremental.users_skipped");
  return c;
}

obs::Counter& shard_advances_counter() {
  static obs::Counter& c = counter("shard.advances");
  return c;
}

obs::Gauge& shard_imbalance_gauge() {
  static obs::Gauge& g = obs::MetricsRegistry::global().gauge(
      "shard.imbalance_max_over_mean");
  return g;
}

}  // namespace

ShardedEvaluator::ShardedEvaluator(const ActivityCatalog& catalog,
                                   EvaluationParams base_params, EvalMode mode,
                                   std::size_t shards)
    : catalog_(&catalog),
      base_params_(base_params),
      mode_(mode),
      op_types_(catalog.types_in(ActivityCategory::kOperation)),
      oc_types_(catalog.types_in(ActivityCategory::kOutcome)),
      shards_(shards == 0 ? default_shard_count() : shards) {}

std::size_t ShardedEvaluator::default_shard_count() {
  // size() counts spawned workers; the calling thread participates too.
  const std::size_t parallelism = util::global_pool().size() + 1;
  return std::min<std::size_t>(parallelism, 16);
}

std::size_t ShardedEvaluator::frozen_users() const {
  std::size_t n = 0;
  for (const Segment& seg : segments_) n += seg.frozen_count;
  return n;
}

bool ShardedEvaluator::skippable(const ActivityStore& store,
                                 const UserActiveness& ua, util::TimePoint now,
                                 bool& durable) const {
  durable = true;
  // No data at all: stays a fresh account until an activity surfaces (and
  // that would have put the user in the delta set).
  if (ua.fresh()) return true;
  const util::Duration plen = util::days(base_params_.period_length_days);

  enum Cert { kNo, kDurable, kTransient };

  // Does `type`'s stream provably evaluate to Φ = 0 at `now`? The stream is
  // unchanged since the cached evaluation (the user is not in the delta
  // set), so each certificate needs only the store's aggregates:
  //  * pigeonhole: m > n — m never shrinks while n is frozen;
  //  * zero total impact: the prefix sum is frozen;
  //  * stale newest period: the last activity strictly predates now − d
  //    (equality lands *inside* the newest period — boundaries are
  //    left-closed);
  //  * static gap: a gap > 2d between consecutive activities contains a
  //    full boundary-aligned period for ANY t_c — the grid has spacing d,
  //    so (ts_i, ts_{i+1} − d] is longer than d and holds a grid point b,
  //    and [b, b + d) ⊂ the gap is empty. Durable as-is when the window is
  //    unbounded; under a max_periods cap P the capped window [t' − P·d, t')
  //    can slide past the gap, EXCEPT when the gap ends recently enough:
  //      ts_{i+1} ≥ ts_{n−1} − (P−4)·d        (P ≥ 4)
  //    Then for every t' up to ts_{n−1} + d the interval of admissible grid
  //    points (max(ts_i, t' − (P−1)·d), ts_{i+1} − d] keeps length ≥ d (so
  //    it holds a grid point and an empty period at depth e ≥ 2, clear of
  //    the kClampOldest tail), and for every later t' the newest period
  //    [t' − d, t') itself is empty because ts_{n−1} has gone stale — the
  //    zero persists at every future trigger (full derivation: DESIGN.md
  //    §9.2). Gaps ending earlier than that stay transient while the window
  //    is uncapped and certify nothing once the cap engages.
  // All but the gap rule are monotone in t_c (m only grows, totals are
  // frozen, the newest activity only recedes), so they persist at every
  // later trigger; the gap rule is monotone exactly in the cases above.
  const auto frozen_zero_type = [&](ActivityTypeId type) -> Cert {
    const auto full = store.stream(ua.user, type);
    const auto it = std::upper_bound(
        full.begin(), full.end(), now,
        [](util::TimePoint t, const Activity& a) { return t < a.timestamp; });
    const auto n = static_cast<std::size_t>(it - full.begin());
    if (n == 0) return kNo;  // no-data factor: neutral, pins nothing
    const util::Duration span = now - full.front().timestamp;
    std::int64_t m = span <= 0 ? 1 : (span + plen - 1) / plen;
    if (m < 1) m = 1;
    const bool capped =
        base_params_.max_periods > 0 && m > base_params_.max_periods;
    if (capped) m = base_params_.max_periods;
    if (m > static_cast<std::int64_t>(n)) return kDurable;
    if (store.prefix(ua.user, type)[n] <= 0.0) return kDurable;
    if (full[n - 1].timestamp < now - plen) return kDurable;
    if (store.max_gap_prefix(ua.user, type)[n] > 2 * plen) {
      if (base_params_.max_periods <= 0) return kDurable;
      const std::int64_t cap = base_params_.max_periods;
      if (cap >= 4) {
        // Find the widest-reaching recent gap: any consecutive pair with
        // its right end at/after the cutoff and a gap > 2d certifies.
        const util::TimePoint cutoff =
            full[n - 1].timestamp - (cap - 4) * plen;
        const auto lo = std::lower_bound(
            full.begin(), full.begin() + static_cast<std::ptrdiff_t>(n),
            cutoff, [](const Activity& a, util::TimePoint t) {
              return a.timestamp < t;
            });
        std::size_t i = static_cast<std::size_t>(lo - full.begin());
        if (i == 0) i = 1;  // pairs need a left neighbour
        for (; i < n; ++i) {
          if (full[i].timestamp - full[i - 1].timestamp > 2 * plen)
            return kDurable;
        }
      }
      if (!capped) return kTransient;  // holds at this t_c; cap may bite
    }
    return kNo;
  };

  // Per category (each must hold; a live positive rank always moves — Eq.
  // 1's m grows with t_c, diluting Avg and shifting every boundary): the
  // cached Φ = 0 persists if ANY contributing stream stays at zero — one
  // zero factor absorbs the whole product, pinning log_phi at 0 exactly as
  // a recompute would. last_activity is unchanged by construction, so the
  // skipped UserActiveness is rank-identical to a full re-evaluation.
  const auto frozen = [&](const Rank& r, std::span<const ActivityTypeId> types) {
    if (!r.has_data) return true;
    if (!r.zero) return false;
    if (r.sticky_zero) return true;  // structural, no stream checks needed
    Cert best = kNo;
    for (const ActivityTypeId t : types) {
      const Cert c = frozen_zero_type(t);
      if (c == kDurable) return true;
      if (c == kTransient) best = kTransient;
    }
    if (best == kTransient) {
      durable = false;
      return true;
    }
    return false;
  };
  return frozen(ua.op, op_types_) && frozen(ua.oc, oc_types_);
}

void ShardedEvaluator::ensure_segments(ActivityStore& store) {
  if (!segments_.empty() && map_.users() == store.user_count()) return;
  map_ = ShardMap(store.user_count(), shards_);
  store.set_dirty_shards(shards_);
  segments_.assign(shards_, {});
  for (std::size_t s = 0; s < shards_; ++s) {
    segments_[s].begin = map_.begin(s);
    segments_[s].end = map_.end(s);
  }
  evaluated_ = false;
}

void ShardedEvaluator::rebuild(ActivityStore& store, util::TimePoint now) {
  // Everything is re-evaluated, so every queued ingest event is applied
  // first and the dirty queues are stale by definition.
  store.drain_ingest();
  store.take_dirty();
  EvaluationParams params = base_params_;
  params.now = now;
  users_ = Evaluator(*catalog_, params).evaluate_all(store);
  groups_.resize(users_.size());
  for (std::size_t u = 0; u < users_.size(); ++u) {
    groups_[u] = classify(users_[u]);
  }
  plan_ = build_scan_plan(users_);
  reeval_flags_.assign(users_.size(), 0);
  for (Segment& seg : segments_) {
    seg.last_now = now;
    seg.frozen.assign(seg.end - seg.begin, 0);
    seg.frozen_count = 0;
    seg.reeval.clear();
    seg.stats = {};
    seg.stats.full_rebuild = true;
    seg.stats.users_reevaluated = seg.end - seg.begin;
  }
}

bool ShardedEvaluator::wakes(std::size_t shard, const ActivityStore& store,
                             util::TimePoint now) const {
  // A segment's cached evaluation provably still holds at `now` when every
  // user in it is frozen under a durable certificate, nothing is queued for
  // it, and the advancing trim reveals none of its trace events.
  const Segment& seg = segments_[shard];
  return store.has_dirty(shard) || store.has_pending_ingest(shard) ||
         seg.frozen_count != seg.frozen.size() ||
         !store.chrono_window(shard, seg.last_now, now).empty();
}

void ShardedEvaluator::advance_segment(std::size_t shard, ActivityStore& store,
                                       const Evaluator& evaluator,
                                       util::TimePoint now) {
  Segment& seg = segments_[shard];
  AdvanceStats& stats = seg.stats;
  stats = {};
  seg.reeval.clear();

  // Apply this segment's queued concurrent ingest first: the events land in
  // streams/dirty/chrono exactly as direct appends would have, so the
  // candidates below see them as ordinary dirty users.
  store.drain_ingest(shard);

  // Delta candidates: streaming appends since the last drain, plus users
  // whose events the advancing trim just revealed (replay stores hold the
  // whole trace up front — time moving forward is what "adds" activity).
  const auto mark = [&](trace::UserId u) {
    if (u >= seg.begin && u < seg.end && !reeval_flags_[u]) {
      reeval_flags_[u] = 1;
      ++stats.users_dirty;
    }
  };
  for (const trace::UserId u : store.take_dirty(shard)) mark(u);
  for (const auto& [ts, u] : store.chrono_window(shard, seg.last_now, now)) {
    mark(u);
  }

  for (trace::UserId u = seg.begin; u < seg.end; ++u) {
    std::uint8_t& frozen = seg.frozen[u - seg.begin];
    if (reeval_flags_[u]) {
      if (frozen) {  // new activity voids any memoized skip
        frozen = 0;
        --seg.frozen_count;
      }
      seg.reeval.push_back(u);
      continue;
    }
    if (frozen) continue;  // durable skip: holds until dirty
    bool durable = false;
    if (skippable(store, users_[u], now, durable)) {
      if (durable) {
        frozen = 1;
        ++seg.frozen_count;
      }
    } else {
      reeval_flags_[u] = 1;  // marks plan entries to splice out
      seg.reeval.push_back(u);
    }
  }
  stats.users_reevaluated = seg.reeval.size();
  stats.users_skipped = (seg.end - seg.begin) - seg.reeval.size();

  // Segments own disjoint user ranges, so their writes into the owner's
  // dense arrays never overlap.
  util::global_pool().parallel_for(0, seg.reeval.size(), [&](std::size_t i) {
    const trace::UserId u = seg.reeval[i];
    users_[u] = evaluator.evaluate_user(store, u);
    groups_[u] = classify(users_[u]);
  });
  seg.last_now = now;
}

void ShardedEvaluator::splice(std::size_t reevaluated) {
  if (reevaluated * 2 >= users_.size()) {
    // Near-full delta: patching costs more than sorting from scratch.
    // Same output either way — scan_less is a strict total order.
    plan_ = build_scan_plan(users_);
  } else if (reevaluated > 0) {
    // Batched splice: one compaction pass per group vector plus a sorted
    // merge of the incoming entries — O(n + r log r) per trigger instead
    // of r separate O(n) erase/insert memmoves. reeval_flags_ marks exactly
    // the re-evaluated users (dirty + skip-rule failures).
    for (auto& vec : plan_.groups) {
      vec.erase(std::remove_if(vec.begin(), vec.end(),
                               [this](const UserActiveness& x) {
                                 return reeval_flags_[x.user];
                               }),
                vec.end());
    }
    std::array<std::vector<UserActiveness>, kGroupCount> incoming;
    for (const std::size_t s : woken_) {
      for (const trace::UserId u : segments_[s].reeval) {
        incoming[static_cast<std::size_t>(groups_[u])].push_back(users_[u]);
      }
    }
    for (std::size_t gi = 0; gi < kGroupCount; ++gi) {
      auto& in = incoming[gi];
      if (in.empty()) continue;
      const auto less = [g = static_cast<UserGroup>(gi)](
                            const UserActiveness& a, const UserActiveness& b) {
        return scan_less(g, a, b);
      };
      std::sort(in.begin(), in.end(), less);
      auto& vec = plan_.groups[gi];
      merge_scratch_.clear();
      merge_scratch_.reserve(vec.size() + in.size());
      std::merge(vec.begin(), vec.end(), in.begin(), in.end(),
                 std::back_inserter(merge_scratch_), less);
      vec.swap(merge_scratch_);
    }
  }
  for (const std::size_t s : woken_) {
    for (const trace::UserId u : segments_[s].reeval) reeval_flags_[u] = 0;
  }
}

AdvanceStats ShardedEvaluator::advance(ActivityStore& store,
                                       util::TimePoint now) {
  const auto wall0 = std::chrono::steady_clock::now();
  obs::TimerSpan span("incremental.advance");
  if (!store.finalized()) store.sort_all();
  ensure_segments(store);

  woken_.clear();
  AdvanceStats stats;
  if (mode_ == EvalMode::kFull || !evaluated_ || now < last_now_) {
    rebuild(store, now);
    for (std::size_t s = 0; s < shards_; ++s) woken_.push_back(s);
    stats.full_rebuild = true;
    full_rebuilds_counter().add();
  } else {
    for (std::size_t s = 0; s < shards_; ++s) {
      if (wakes(s, store, now)) {
        woken_.push_back(s);
      } else {
        Segment& seg = segments_[s];
        seg.stats = {};
        seg.stats.users_skipped = seg.end - seg.begin;
      }
    }
    EvaluationParams params = base_params_;
    params.now = now;
    const Evaluator evaluator(*catalog_, params);
    // grain = 1 gives the scheduler one chunk per segment so uneven
    // segments self-balance; a lone woken segment skips the dispatch.
    if (woken_.size() == 1) {
      advance_segment(woken_[0], store, evaluator, now);
    } else {
      util::global_pool().parallel_for(
          0, woken_.size(),
          [&](std::size_t i) {
            advance_segment(woken_[i], store, evaluator, now);
          },
          /*grain=*/1);
    }
    std::size_t reevaluated = 0;
    for (const std::size_t s : woken_) {
      reevaluated += segments_[s].stats.users_reevaluated;
    }
    splice(reevaluated);
  }

  std::size_t max_reeval = 0;
  for (const Segment& seg : segments_) {
    stats.users_dirty += seg.stats.users_dirty;
    stats.users_reevaluated += seg.stats.users_reevaluated;
    stats.users_skipped += seg.stats.users_skipped;
    max_reeval = std::max(max_reeval, seg.stats.users_reevaluated);
  }
  shards_advanced_ = woken_.size();
  if (!woken_.empty()) {
    const double mean = static_cast<double>(stats.users_reevaluated) /
                        static_cast<double>(woken_.size());
    shard_imbalance_gauge().set(
        mean > 0.0 ? static_cast<std::int64_t>(
                         100.0 * static_cast<double>(max_reeval) / mean)
                   : 100);
  }

  evaluated_ = true;
  last_now_ = now;
  advances_counter().add();
  users_dirty_counter().add(stats.users_dirty);
  users_reevaluated_counter().add(stats.users_reevaluated);
  users_skipped_counter().add(stats.users_skipped);
  shard_advances_counter().add(woken_.size());

  seconds_ += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            wall0)
                  .count();
  return stats;
}

}  // namespace adr::activeness
