#include "workload.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "synth/stream_synth.hpp"

namespace perfbench {

namespace {

using adr::synth::StreamEventKind;

constexpr char kInputMagic[8] = {'A', 'D', 'R', 'B', 'I', 'N', '0', '1'};
constexpr std::size_t kChunkRecords = 1 << 16;
constexpr util::Duration kHour = 3600;

struct InputHeader {
  char magic[8];
  std::uint64_t backfill;
  std::uint64_t live;
};

StreamEventKind kind_of(const Record& r) {
  return static_cast<StreamEventKind>(r.tag & 3u);
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

void fnv(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
}

}  // namespace

util::TimePoint WorkloadSpec::sim_begin() const {
  return adr::synth::StreamSynthConfig{}.sim_begin;
}

util::TimePoint WorkloadSpec::sim_end() const {
  return sim_begin() + util::days(span_days);
}

WorkloadSpec make_spec(const std::string& workload, const std::string& size,
                       std::uint64_t seed, double seconds) {
  const bool small = size == "small";
  if (!small && size != "full") {
    throw std::invalid_argument("unknown size \"" + size + "\"");
  }
  WorkloadSpec s;
  s.name = workload;
  s.seed = seed;
  s.span_days =
      small ? 3 : std::max(1, static_cast<int>(std::lround(3.0 * seconds)));
  s.setup_reps = small ? 2 : 3;
  if (workload == "purge_steady") {
    // The deployment shape: retention scan/apply and Vfs upkeep dominate.
    s.kind = WorkloadKind::kPurgeSteady;
    s.users = small ? 1000 : 16000;
    s.files_per_user = 10;
    s.events_per_user_day = 2.0;
    s.trigger_every = 6 * kHour;
  } else if (workload == "rank_refresh") {
    // Activity only: Eq. 1-6 re-evaluation and shard fan-out dominate.
    s.kind = WorkloadKind::kRankRefresh;
    s.users = small ? 2000 : 20000;
    s.files_per_user = 2;
    s.events_per_user_day = 4.0;
    s.drop_live_files = true;
    s.refresh_every = 4 * kHour;
    s.trigger_every = 6 * kHour;
    s.trigger_offset = 1 * kHour;  // never on the refresh grid
  } else if (workload == "serve_wal") {
    // The daemon as deployed: WAL, ticks, checkpoints, residency.
    s.kind = WorkloadKind::kServeWal;
    s.users = small ? 300 : 3500;
    s.files_per_user = 10;
    s.events_per_user_day = 2.0;
    s.trigger_every = 6 * kHour;
    s.refresh_every = 6 * kHour;
    s.refresh_offset = -3 * kHour;  // halfway between triggers
    s.vfs_budget_bytes = small ? 16 * 1024 : 176 * 1024;
    s.tick_every_events = 512;
  } else {
    throw std::invalid_argument("unknown workload \"" + workload + "\"");
  }
  return s;
}

std::string input_key(const WorkloadSpec& spec) {
  std::ostringstream key;
  key << spec.name << "-seed" << spec.seed << "-u" << spec.users << "-f"
      << spec.files_per_user << "-e" << spec.events_per_user_day << "-d"
      << spec.span_days << (spec.drop_live_files ? "-act" : "") << "-t"
      << spec.trigger_every << "+" << spec.trigger_offset << "-r"
      << spec.refresh_every << "+" << spec.refresh_offset << "-v"
      << spec.vfs_budget_bytes << "-k" << spec.tick_every_events;
  return key.str();
}

std::vector<Op> schedule(const WorkloadSpec& spec) {
  std::vector<Op> ops;
  const auto add = [&](util::Duration every, util::Duration offset,
                       OpKind kind) {
    if (every <= 0) return;
    for (util::TimePoint t = spec.sim_begin() + offset + every;
         t <= spec.sim_end(); t += every) {
      ops.push_back({t, kind});
    }
  };
  add(spec.trigger_every, spec.trigger_offset, OpKind::kTrigger);
  add(spec.refresh_every, spec.refresh_offset, OpKind::kRefresh);
  std::stable_sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) {
    return a.at != b.at ? a.at < b.at : a.kind > b.kind;  // refresh first
  });
  return ops;
}

// -- inputs -----------------------------------------------------------------

void generate_input(const WorkloadSpec& spec, const std::string& path) {
  adr::synth::StreamSynthConfig cfg;
  cfg.users = spec.users;
  cfg.seed = spec.seed;
  cfg.sim_span_days = spec.span_days;
  cfg.initial_files_per_user = spec.files_per_user;
  cfg.events_per_user_day = spec.events_per_user_day;

  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) throw std::runtime_error("cannot write " + tmp);
  InputHeader header{};
  std::memcpy(header.magic, kInputMagic, sizeof(kInputMagic));
  std::fwrite(&header, sizeof(header), 1, f);

  adr::synth::StreamSynth stream(cfg);
  adr::synth::StreamEvent e;
  std::vector<Record> chunk;
  chunk.reserve(kChunkRecords);
  const auto flush = [&] {
    if (!chunk.empty() &&
        std::fwrite(chunk.data(), sizeof(Record), chunk.size(), f) !=
            chunk.size()) {
      std::fclose(f);
      throw std::runtime_error("short write to " + tmp);
    }
    chunk.clear();
  };
  while (stream.next(e)) {
    const bool live = e.timestamp >= cfg.sim_begin;
    const bool file_event = e.kind == StreamEventKind::kFileCreate ||
                            e.kind == StreamEventKind::kFileAccess;
    if (live && file_event && spec.drop_live_files) continue;
    Record r;
    r.ts = e.timestamp;
    r.user = e.user;
    r.tag = (e.ordinal << 2) | static_cast<std::uint32_t>(e.kind);
    r.payload = e.kind == StreamEventKind::kFileCreate
                    ? e.size_bytes
                    : std::bit_cast<std::uint64_t>(e.impact);
    ++(live ? header.live : header.backfill);
    chunk.push_back(r);
    if (chunk.size() == kChunkRecords) flush();
  }
  flush();
  std::fseek(f, 0, SEEK_SET);
  std::fwrite(&header, sizeof(header), 1, f);
  if (std::fclose(f) != 0) throw std::runtime_error("cannot close " + tmp);
  std::filesystem::rename(tmp, path);
}

InputReader::InputReader(const std::string& path)
    : file_(std::fopen(path.c_str(), "rb")) {
  InputHeader header{};
  if (!file_ || std::fread(&header, sizeof(header), 1, file_) != 1 ||
      std::memcmp(header.magic, kInputMagic, sizeof(kInputMagic)) != 0) {
    if (file_) std::fclose(file_);
    throw std::runtime_error("unreadable input file " + path);
  }
  backfill_ = header.backfill;
  chunk_.reserve(kChunkRecords);
}

InputReader::~InputReader() { std::fclose(file_); }

bool InputReader::next(Record& out) {
  if (pos_ == chunk_.size()) {
    chunk_.resize(kChunkRecords);
    chunk_.resize(std::fread(chunk_.data(), sizeof(Record), kChunkRecords,
                             file_));
    pos_ = 0;
    if (chunk_.empty()) return false;
  }
  out = chunk_[pos_++];
  return true;
}

void InputReader::seek_record(std::uint64_t index) {
  const auto offset = static_cast<long>(sizeof(InputHeader) +
                                        index * sizeof(Record));
  if (std::fseek(file_, offset, SEEK_SET) != 0) {
    throw std::runtime_error("input seek failed");
  }
  chunk_.clear();
  pos_ = 0;
}

void InputReader::rewind() { seek_record(0); }

void InputReader::seek_live() { seek_record(backfill_); }

bool is_file_record(const Record& r) {
  const StreamEventKind k = kind_of(r);
  return k == StreamEventKind::kFileCreate || k == StreamEventKind::kFileAccess;
}

void to_event(const Record& r, std::uint64_t seq, adr::trace::Event& out) {
  using adr::trace::EventKind;
  out.seq = seq;
  out.user = r.user;
  out.timestamp = r.ts;
  out.impact = 0.0;
  out.size_bytes = 0;
  out.stripe_count = 1;
  const auto ordinal = r.tag >> 2;
  switch (kind_of(r)) {
    case StreamEventKind::kJobSubmit:
      out.kind = EventKind::kJob;
      out.impact = std::bit_cast<double>(r.payload);
      out.path.clear();
      break;
    case StreamEventKind::kPublication:
      out.kind = EventKind::kPublication;
      out.impact = std::bit_cast<double>(r.payload);
      out.path.clear();
      break;
    case StreamEventKind::kFileCreate:
      out.kind = EventKind::kCreate;
      out.size_bytes = r.payload;
      out.path = adr::synth::StreamSynth::path_of(r.user, ordinal);
      break;
    case StreamEventKind::kFileAccess:
      out.kind = EventKind::kAccess;
      out.path = adr::synth::StreamSynth::path_of(r.user, ordinal);
      break;
  }
}

// -- digests ----------------------------------------------------------------

std::uint64_t rank_digest(const adr::activeness::RankStore& ranks) {
  std::uint64_t h = kFnvBasis;
  for (const auto& ua : ranks.all()) {
    // An x87 long double carries its value in the low 10 bytes; the rest
    // is padding with unspecified contents.
    const long double keys[2] = {ua.op.sort_key(), ua.oc.sort_key()};
    fnv(h, &ua.user, sizeof(ua.user));
    fnv(h, &keys[0], 10);
    fnv(h, &keys[1], 10);
    fnv(h, &ua.last_activity, sizeof(ua.last_activity));
  }
  return h;
}

std::uint64_t victims_digest(const std::vector<std::string>& paths) {
  std::uint64_t h = kFnvBasis;
  for (const auto& p : paths) {
    fnv(h, p.data(), p.size());
    fnv(h, "\n", 1);
  }
  return h;
}

void save_digests(const Digests& d, const std::string& path) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp);
    out << "perfbench-digests 1 " << d.ops.size() << "\n";
    for (const OpDigest& op : d.ops) {
      out << static_cast<int>(op.kind) << ' ' << op.at << ' ' << op.victims
          << ' ' << op.purged_bytes << ' ' << op.victims_hash << ' '
          << op.ranks_hash << "\n";
    }
    out << "final " << d.final_ranks << "\n";
    if (!out) throw std::runtime_error("cannot write " + tmp);
  }
  std::filesystem::rename(tmp, path);
}

bool load_digests(const std::string& path, Digests& out) {
  std::ifstream in(path);
  std::string magic, word;
  int version = 0;
  std::size_t n = 0;
  if (!(in >> magic >> version >> n) || magic != "perfbench-digests" ||
      version != 1) {
    return false;
  }
  out.ops.assign(n, {});
  for (OpDigest& op : out.ops) {
    int kind = 0;
    if (!(in >> kind >> op.at >> op.victims >> op.purged_bytes >>
          op.victims_hash >> op.ranks_hash)) {
      return false;
    }
    op.kind = static_cast<OpKind>(kind);
  }
  return static_cast<bool>(in >> word >> out.final_ranks) && word == "final";
}

}  // namespace perfbench
