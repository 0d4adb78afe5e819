#pragma once
// Workload definitions, seeded inputs and output digests for the ActiveDR
// benchmark.
//
// A workload is a simulated timeline: a backfill population of files, a
// live event stream from synth::StreamSynth, and a schedule of purge
// triggers and evaluate-only rank refreshes. Inputs are generated once per
// input_key() into a compact binary file, which the timed replay streams
// back in bounded chunks, so neither generator time nor generator memory
// reaches a metric.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "activeness/rank_store.hpp"
#include "trace/event_log.hpp"
#include "util/time.hpp"

namespace perfbench {

namespace util = adr::util;

enum class WorkloadKind { kPurgeSteady, kRankRefresh, kServeWal };

struct WorkloadSpec {
  std::string name;
  WorkloadKind kind = WorkloadKind::kPurgeSteady;
  std::uint64_t seed = 1;

  std::size_t users = 0;
  std::size_t files_per_user = 0;
  double events_per_user_day = 0.0;
  int span_days = 0;
  /// Drop live file creates/accesses: the stream becomes activity only.
  bool drop_live_files = false;

  /// Purge triggers at offset + k * every (k >= 1), up to the span end.
  util::Duration trigger_every = 0;
  util::Duration trigger_offset = 0;
  /// Evaluate-only refreshes on the same rule; every = 0 disables them.
  util::Duration refresh_every = 0;
  util::Duration refresh_offset = 0;

  /// serve_wal: Vfs memory budget and feeder tick cadence.
  std::uint64_t vfs_budget_bytes = 0;
  std::uint64_t tick_every_events = 0;

  /// Set-up repetitions per run; setup_s is their median.
  int setup_reps = 3;

  util::TimePoint sim_begin() const;
  util::TimePoint sim_end() const;
};

/// `size` is "full" (the benchmark) or "small" (the benchmark's own tests).
/// The simulated span scales with `seconds`: three simulated days per
/// second of run length, so the default 10 s run replays 30 days.
WorkloadSpec make_spec(const std::string& workload, const std::string& size,
                       std::uint64_t seed, double seconds);

/// Names the inputs: every parameter that shapes the input file or the
/// schedule is part of it.
std::string input_key(const WorkloadSpec& spec);

enum class OpKind : std::uint8_t { kTrigger = 0, kRefresh = 1 };

struct Op {
  util::TimePoint at = 0;
  OpKind kind = OpKind::kTrigger;
};

/// Triggers and refreshes in time order. An op at time T fires once every
/// event stamped before T has been applied.
std::vector<Op> schedule(const WorkloadSpec& spec);

// -- inputs -----------------------------------------------------------------

/// One stream event, 24 bytes. `tag` packs (file ordinal << 2 | kind) with
/// kind as synth::StreamEventKind; `payload` is the impact's bit pattern
/// for activity events and the size in bytes for creates.
struct Record {
  std::int64_t ts = 0;
  std::uint64_t payload = 0;
  std::uint32_t user = 0;
  std::uint32_t tag = 0;
};
static_assert(sizeof(Record) == 24);

/// Write the workload's input file: backfill records (stamped before
/// sim_begin) followed by the live records, in stream order.
void generate_input(const WorkloadSpec& spec, const std::string& path);

/// Streams an input file in bounded chunks.
class InputReader {
 public:
  explicit InputReader(const std::string& path);
  ~InputReader();
  InputReader(const InputReader&) = delete;
  InputReader& operator=(const InputReader&) = delete;

  std::uint64_t backfill() const { return backfill_; }

  /// Next record in file order; false at the end.
  bool next(Record& out);
  /// Re-position at the first record (the backfill).
  void rewind();
  /// Re-position at the first live record.
  void seek_live();

 private:
  void seek_record(std::uint64_t index);

  std::FILE* file_ = nullptr;
  std::uint64_t backfill_ = 0;
  std::vector<Record> chunk_;
  std::size_t pos_ = 0;
};

bool is_file_record(const Record& r);

/// The WAL event a record stands for. `out` is reused so the path string
/// keeps its capacity across calls.
void to_event(const Record& r, std::uint64_t seq, adr::trace::Event& out);

// -- digests ----------------------------------------------------------------

/// FNV-1a over every user's (id, op/oc sort keys, last activity).
std::uint64_t rank_digest(const adr::activeness::RankStore& ranks);
/// FNV-1a over the victim paths in purge order.
std::uint64_t victims_digest(const std::vector<std::string>& paths);

/// What one trigger or refresh produced; compared against the reference.
struct OpDigest {
  OpKind kind = OpKind::kTrigger;
  util::TimePoint at = 0;
  std::uint64_t victims = 0;
  std::uint64_t purged_bytes = 0;
  std::uint64_t victims_hash = 0;
  std::uint64_t ranks_hash = 0;

  bool operator==(const OpDigest&) const = default;
};

struct Digests {
  std::vector<OpDigest> ops;
  std::uint64_t final_ranks = 0;
};

void save_digests(const Digests& d, const std::string& path);
/// False when the file is missing or malformed.
bool load_digests(const std::string& path, Digests& out);

}  // namespace perfbench
