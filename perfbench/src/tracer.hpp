#pragma once
// In-memory spans recorded by the benchmark around each call into a
// layer's public function. Spans keep their parent (the span open when
// they began), so a layer's self time is its spans' duration minus the part
// covered by child spans. Nothing is written until the run ends.

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  kApplyActivity,   ///< core::Service::apply of a job/publication event
  kApplyFile,       ///< core::Service::apply of a file create/access event
  kEvaluate,        ///< core::Service::evaluate
  kPurge,           ///< core::Service::purge (after a separate evaluate)
  kWalAppend,       ///< trace::EventLogWriter::append
  kTick,            ///< serve::Daemon::tick that only polled the WAL
  kTickCheckpoint,  ///< ... that also wrote a cadence checkpoint
  kTickTrigger,     ///< ... that answered a ctl trigger command
  kTickRefresh,     ///< ... that answered a ctl evaluate command
  kCtl,             ///< ctl client: drop the command file, await the tick
  kCount,
};

const char* layer_name(Layer layer);

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;
  static constexpr std::uint32_t kNone = UINT32_MAX;

  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 20);
  }

  bool enabled() const { return enabled_; }

  /// RAII span; a no-op when the tracer is off.
  class Scope {
   public:
    Scope(Tracer& tracer, Layer layer) : tracer_(tracer) {
      if (tracer_.enabled_) handle_ = tracer_.open(layer);
    }
    ~Scope() {
      if (handle_ != kNone) tracer_.close(handle_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Re-file the span under another layer once its outcome is known.
    void relabel(Layer layer) {
      if (handle_ != kNone) tracer_.spans_[handle_].layer = layer;
    }

   private:
    Tracer& tracer_;
    std::uint32_t handle_ = kNone;
  };

  struct LayerStats {
    std::uint64_t calls = 0;
    double self_s = 0.0;
    double p50_ms = 0.0;
  };
  /// Per-layer totals over every closed span.
  std::array<LayerStats, static_cast<std::size_t>(Layer::kCount)> stats()
      const;

  /// Dump the spans as CSV (layer,parent,begin_ns,end_ns).
  void write_csv(const std::string& path) const;

 private:
  struct Span {
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t parent = kNone;
    Layer layer = Layer::kCount;
  };

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }
  std::uint32_t open(Layer layer) {
    const auto handle = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back({now_ns(), 0, current_, layer});
    current_ = handle;
    return handle;
  }
  void close(std::uint32_t handle) {
    spans_[handle].end_ns = now_ns();
    current_ = spans_[handle].parent;
  }

  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::uint32_t current_ = kNone;
};

/// Wall clock of the timed replay that can be paused around untimed
/// verification (digest checks), which then reaches no metric.
class ReplayClock {
 public:
  using Clock = std::chrono::steady_clock;
  void start() { begin_ = Clock::now(); }
  void pause() { paused_at_ = Clock::now(); }
  void resume() { paused_ += Clock::now() - paused_at_; }
  double elapsed_s() const {
    return std::chrono::duration<double>(Clock::now() - begin_ - paused_)
        .count();
  }

 private:
  Clock::time_point begin_{};
  Clock::time_point paused_at_{};
  Clock::duration paused_{};
};

}  // namespace perfbench
