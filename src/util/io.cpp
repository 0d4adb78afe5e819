#include "util/io.hpp"

#include <fcntl.h>
#include <unistd.h>
#include <zlib.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <optional>
#include <streambuf>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "util/fault.hpp"
#include "util/gzfile.hpp"
#include "util/logging.hpp"

namespace adr::util::io {

namespace fsys = std::filesystem;

void Crc32::update(const char* data, std::size_t n) {
  crc_ = static_cast<std::uint32_t>(
      ::crc32(crc_, reinterpret_cast<const Bytef*>(data),
              static_cast<uInt>(n)));
}

std::string make_footer(std::uint32_t crc, std::uint64_t payload_bytes) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%s v%d crc32=%08x bytes=%llu",
                kFooterPrefix, kFooterVersion, crc,
                static_cast<unsigned long long>(payload_bytes));
  return buf;
}

bool parse_footer(const std::string& line, std::uint32_t& crc,
                  std::uint64_t& payload_bytes) {
  int version = 0;
  unsigned int parsed_crc = 0;
  unsigned long long bytes = 0;
  char tail = '\0';
  const int n = std::sscanf(line.c_str(), "#ADRCRC v%d crc32=%8x bytes=%llu%c",
                            &version, &parsed_crc, &bytes, &tail);
  if (n != 3 || version != kFooterVersion) return false;
  crc = parsed_crc;
  payload_bytes = bytes;
  return true;
}

namespace {

obs::Counter& quarantined_counter() {
  static obs::Counter& c =
      obs::MetricsRegistry::global().counter("io.quarantined");
  return c;
}

bool g_default_fsync = false;

void fsync_path(const std::string& path, bool directory) {
  const int flags = directory ? O_RDONLY | O_DIRECTORY : O_RDONLY;
  const int fd = ::open(path.c_str(), flags | O_CLOEXEC);
  if (fd < 0) {
    throw std::runtime_error("io: cannot open for fsync: " + path + ": " +
                             std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    throw std::runtime_error("io: fsync failed: " + path + ": " +
                             std::strerror(errno));
  }
}

/// Streambuf that buffers payload bytes in a fixed put area and drains them
/// to a destination buffer, tracking CRC/length and honouring
/// short-write/ENOSPC fault directives once per drained chunk. Fault offsets
/// stay exact: a directive at byte N lets exactly N payload bytes through
/// whatever the chunking.
class FaultCrcBuf final : public std::streambuf {
 public:
  FaultCrcBuf(std::streambuf* dest, const char* point)
      : dest_(dest), point_(point), area_(new char[kIoChunkBytes]) {
    setp(area_.get(), area_.get() + kIoChunkBytes);
  }

  /// Payload bytes accepted so far, drained or still buffered.
  std::uint64_t bytes() const { return bytes_ + pending(); }
  std::uint32_t crc() const {
    Crc32 crc = crc_;
    crc.update(pbase(), pending());
    return crc.value();
  }
  bool failed() const { return failed_; }
  bool enospc() const { return enospc_; }

 protected:
  int overflow(int ch) override {
    if (!drain()) return traits_type::eof();
    if (traits_type::eq_int_type(ch, traits_type::eof())) {
      return traits_type::not_eof(ch);
    }
    *pptr() = traits_type::to_char_type(ch);
    pbump(1);
    return ch;
  }

  int sync() override { return drain() ? dest_->pubsync() : -1; }

 private:
  std::size_t pending() const {
    return static_cast<std::size_t>(pptr() - pbase());
  }

  /// Hand the put area to the destination; false once the stream failed.
  bool drain() {
    const std::size_t n = pending();
    if (!failed_ && n > 0) write_chunk(area_.get(), n);
    // A failed stream keeps no put area: every later write overflows and
    // fails at once.
    setp(area_.get(), area_.get() + (failed_ ? 0 : kIoChunkBytes));
    return !failed_;
  }

  void write_chunk(const char* s, std::size_t n) {
    std::size_t allow = n;
    auto& inj = FaultInjector::global();
    if (inj.armed()) {
      const auto decision = inj.on_write(point_, bytes_, n);
      if (decision.fail) {
        failed_ = true;
        enospc_ = decision.enospc;
        allow = decision.allow;
      }
    }
    const std::streamsize written =
        allow > 0 ? dest_->sputn(s, static_cast<std::streamsize>(allow)) : 0;
    if (written > 0) {
      crc_.update(s, static_cast<std::size_t>(written));
      bytes_ += static_cast<std::uint64_t>(written);
    }
    if (written < static_cast<std::streamsize>(allow)) failed_ = true;
  }

  std::streambuf* dest_;
  const char* point_;
  std::unique_ptr<char[]> area_;
  Crc32 crc_;             // over drained bytes
  std::uint64_t bytes_ = 0;  // drained bytes
  bool failed_ = false;
  bool enospc_ = false;
};

/// Fill `out[0, n)` from `offset` of `in`; throws on a short read.
void read_at(std::ifstream& in, const std::string& path, char* out,
             std::size_t n, std::uint64_t offset) {
  in.seekg(static_cast<std::streamoff>(offset));
  in.read(out, static_cast<std::streamsize>(n));
  if (!in || static_cast<std::size_t>(in.gcount()) != n) {
    throw std::runtime_error("io: cannot read " + path);
  }
}

bool has_footer_prefix(std::string_view line) {
  return line.substr(0, sizeof(kFooterPrefix) - 1) == kFooterPrefix;
}

/// Where the payload ends, once the footer line (if any) is found.
struct PayloadSplit {
  std::uint64_t payload_end = 0;  // bytes covered by the CRC pass
  bool footer = false;            // last non-empty line carries the prefix
  std::string footer_line;        // that line, when `footer`
};

/// Locate the last non-empty line of a plain file by reading backwards from
/// its tail in chunks: normally one small read, whatever the file size.
PayloadSplit split_plain(std::ifstream& in, const std::string& path,
                         std::uint64_t size) {
  PayloadSplit split;
  split.payload_end = size;
  std::vector<char> block(std::min<std::uint64_t>(size, kIoChunkBytes));
  std::uint64_t end = 0;    // one past the last byte that is not '\n'
  std::uint64_t begin = 0;  // start of the line that ends at `end`
  bool in_line = false;
  std::uint64_t hi = size;
  bool found = false;
  while (hi > 0 && !found) {
    const std::uint64_t lo = hi > block.size() ? hi - block.size() : 0;
    read_at(in, path, block.data(), static_cast<std::size_t>(hi - lo), lo);
    for (std::uint64_t i = hi; i > lo; --i) {
      const char c = block[static_cast<std::size_t>(i - 1 - lo)];
      if (!in_line) {
        if (c == '\n') continue;
        end = i;
        in_line = true;
      } else if (c == '\n') {
        begin = i;
        found = true;
        break;
      }
    }
    hi = lo;
  }
  if (!in_line) return split;  // empty, or nothing but newlines
  char prefix[sizeof(kFooterPrefix) - 1];
  if (end - begin < sizeof(prefix)) return split;
  read_at(in, path, prefix, sizeof(prefix), begin);
  if (!has_footer_prefix(std::string_view(prefix, sizeof(prefix)))) {
    return split;
  }
  split.footer = true;
  split.payload_end = begin;
  split.footer_line.resize(static_cast<std::size_t>(end - begin));
  read_at(in, path, split.footer_line.data(), split.footer_line.size(),
          begin);
  return split;
}

/// The one streaming verifier behind read_artifact and digest_artifact: find
/// the footer at the tail, then make one CRC pass over the payload in
/// bounded chunks, keeping the bytes only when `content` is given.
Artifact scan_artifact(const std::string& path, ReadOptions opts,
                       std::string* content) {
  Artifact artifact;
  Crc32 crc;
  std::uint64_t bytes = 0;
  PayloadSplit split;
  if (has_gz_suffix(path)) {
    // Gzip artifacts are verified over their decompressed lines. A footer
    // candidate line is held back until a later non-empty line proves it
    // is payload; every other line goes straight into the CRC.
    GzReader in(path);  // throws if unopenable
    const auto emit = [&](std::string_view text) {
      crc.update(text.data(), text.size());
      bytes += text.size();
      if (content) content->append(text);
    };
    std::optional<std::string> held;
    std::size_t held_newlines = 0;
    while (auto line = in.next_line()) {
      if (line->empty()) {
        if (held) {
          ++held_newlines;
        } else {
          emit("\n");
        }
        continue;
      }
      if (held) {
        emit(*held);
        emit("\n");
        for (; held_newlines > 0; --held_newlines) emit("\n");
        held.reset();
      }
      if (has_footer_prefix(*line)) {
        held = std::move(*line);
      } else {
        emit(*line);
        emit("\n");
      }
    }
    if (held) {
      split.footer = true;
      split.footer_line = std::move(*held);
    }
  } else {
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    if (!in) throw std::runtime_error("io: cannot open " + path);
    split = split_plain(in, path, static_cast<std::uint64_t>(in.tellg()));
    if (split.footer || !opts.require_footer) {
      // Chunks land in `content` when the caller keeps the payload, else in
      // one reused buffer.
      std::vector<char> chunk(content ? 0 : kIoChunkBytes);
      if (content) content->resize(static_cast<std::size_t>(split.payload_end));
      for (std::uint64_t off = 0; off < split.payload_end;) {
        const auto n = static_cast<std::size_t>(
            std::min<std::uint64_t>(kIoChunkBytes, split.payload_end - off));
        char* dst = content ? content->data() + off : chunk.data();
        read_at(in, path, dst, n, off);
        crc.update(dst, n);
        off += n;
      }
      bytes = split.payload_end;
    }
  }
  artifact.crc32 = crc.value();
  artifact.bytes = bytes;

  const auto corrupt = [&](std::string error) {
    artifact.state = ArtifactState::kCorrupt;
    artifact.error = std::move(error);
    if (content) content->clear();
    return artifact;
  };
  if (!split.footer) {
    if (opts.require_footer) {
      return corrupt("missing required #ADRCRC footer");
    }
    artifact.state = ArtifactState::kLegacy;
    return artifact;
  }
  std::uint32_t expect_crc = 0;
  std::uint64_t expect_bytes = 0;
  if (!parse_footer(split.footer_line, expect_crc, expect_bytes)) {
    return corrupt("unparseable #ADRCRC footer: " + split.footer_line);
  }
  if (bytes != expect_bytes) {
    return corrupt("payload length " + std::to_string(bytes) +
                   " != footer bytes " + std::to_string(expect_bytes));
  }
  if (artifact.crc32 != expect_crc) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "crc32 %08x != footer %08x",
                  artifact.crc32, expect_crc);
    return corrupt(buf);
  }
  artifact.state = ArtifactState::kVerified;
  return artifact;
}

}  // namespace

void set_default_fsync(bool on) { g_default_fsync = on; }
bool default_fsync() { return g_default_fsync; }

void commit_tmp(const std::string& tmp, const std::string& path, bool fsync) {
  auto& inj = FaultInjector::global();
  if (fsync) fsync_path(tmp, false);
  inj.crash_point("io.atomic.pre_rename");
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("io: rename " + tmp + " -> " + path +
                             " failed: " + std::strerror(errno));
  }
  inj.crash_point("io.atomic.post_rename");
  if (fsync) {
    const auto dir = fsys::path(path).parent_path();
    fsync_path(dir.empty() ? "." : dir.string(), true);
  }
}

struct AtomicWriter::Impl {
  explicit Impl(const std::string& tmp)
      : file(tmp, std::ios::binary | std::ios::trunc),
        buf(file.rdbuf(), "io.atomic.write"),
        payload(&buf) {}

  std::ofstream file;
  FaultCrcBuf buf;
  std::ostream payload;
  Options opts;
  bool committed = false;
};

AtomicWriter::AtomicWriter(std::string path, Options opts)
    : path_(std::move(path)), tmp_path_(path_ + ".tmp") {
  if (FaultInjector::global().should_fail("io.atomic.open")) {
    throw std::runtime_error("io: cannot open " + tmp_path_ +
                             " (injected open failure)");
  }
  impl_ = std::make_unique<Impl>(tmp_path_);
  impl_->opts = opts;
  if (!impl_->file) {
    throw std::runtime_error("io: cannot open " + tmp_path_ + ": " +
                             std::strerror(errno));
  }
}

AtomicWriter::~AtomicWriter() {
  if (!impl_ || impl_->committed) return;
  // A fault-injected crash must leave the temp file on disk, torn, exactly
  // as a real crash would; every other unwind cleans up.
  if (!FaultInjector::global().crashed()) abort();
}

std::ostream& AtomicWriter::stream() { return impl_->payload; }

void AtomicWriter::write(const std::string& text) { impl_->payload << text; }

void AtomicWriter::write_line(const std::string& line) {
  impl_->payload << line << '\n';
}

std::uint64_t AtomicWriter::payload_bytes() const { return impl_->buf.bytes(); }
std::uint32_t AtomicWriter::payload_crc() const { return impl_->buf.crc(); }

void AtomicWriter::abort() {
  if (!impl_) return;
  impl_->file.close();
  std::remove(tmp_path_.c_str());
  impl_->committed = true;  // nothing further to do on destruction
}

void AtomicWriter::commit() {
  auto& inj = FaultInjector::global();
  impl_->payload.flush();
  if (impl_->buf.failed() || !impl_->file) {
    throw std::runtime_error(
        "io: write failed: " + tmp_path_ +
        (impl_->buf.enospc() ? ": no space left on device" : ""));
  }
  inj.crash_point("io.atomic.pre_commit");
  if (impl_->opts.footer) {
    // The footer goes straight to the file buffer: it describes the payload
    // checksum, so it must not feed back into it.
    impl_->file << make_footer(impl_->buf.crc(), impl_->buf.bytes()) << '\n';
  }
  impl_->file.flush();
  if (!impl_->file) {
    throw std::runtime_error("io: footer write failed: " + tmp_path_);
  }
  impl_->file.close();
  commit_tmp(tmp_path_, path_, impl_->opts.fsync);
  impl_->committed = true;
}

Artifact read_artifact(const std::string& path, ReadOptions opts) {
  std::string content;
  Artifact artifact = scan_artifact(path, opts, &content);
  artifact.content = std::move(content);
  return artifact;
}

Artifact digest_artifact(const std::string& path, ReadOptions opts) {
  return scan_artifact(path, opts, nullptr);
}

std::string quarantine(const std::string& path, const std::string& reason) {
  std::string target = path + ".corrupt";
  for (int i = 1; fsys::exists(target); ++i) {
    target = path + ".corrupt." + std::to_string(i);
  }
  quarantined_counter().add();
  if (std::rename(path.c_str(), target.c_str()) != 0) {
    ADR_WARN << "io: quarantine rename failed for " << path << " ("
             << std::strerror(errno) << "); reason: " << reason;
    return "";
  }
  ADR_WARN << "io: quarantined " << path << " -> " << target << ": " << reason;
  return target;
}

std::string load_verified(const std::string& path, ReadOptions opts) {
  Artifact artifact = read_artifact(path, opts);
  if (artifact.state == ArtifactState::kCorrupt) {
    const std::string where = quarantine(path, artifact.error);
    throw ArtifactCorrupt("io: corrupt artifact " + path + " (" +
                          artifact.error + ")" +
                          (where.empty() ? "" : "; quarantined to " + where));
  }
  return std::move(artifact.content);
}

}  // namespace adr::util::io
