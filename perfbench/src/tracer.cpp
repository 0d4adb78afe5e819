#include "tracer.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace perfbench {

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kApplyActivity: return "core.apply_activity";
    case Layer::kApplyFile: return "core.apply_file";
    case Layer::kEvaluate: return "activeness.evaluate";
    case Layer::kPurge: return "retention.purge";
    case Layer::kWalAppend: return "trace.wal_append";
    case Layer::kTick: return "serve.tick_poll";
    case Layer::kTickCheckpoint: return "serve.tick_checkpoint";
    case Layer::kTickTrigger: return "serve.tick_trigger";
    case Layer::kTickRefresh: return "serve.tick_refresh";
    case Layer::kCtl: return "serve.ctl_client";
    case Layer::kCount: break;
  }
  return "?";
}

std::array<Tracer::LayerStats, static_cast<std::size_t>(Layer::kCount)>
Tracer::stats() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNone) child_ns[s.parent] += s.end_ns - s.begin_ns;
  }
  std::array<LayerStats, static_cast<std::size_t>(Layer::kCount)> out{};
  std::array<std::vector<double>, static_cast<std::size_t>(Layer::kCount)>
      durations_ms;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const auto l = static_cast<std::size_t>(s.layer);
    const std::int64_t dur = s.end_ns - s.begin_ns;
    ++out[l].calls;
    out[l].self_s += static_cast<double>(dur - child_ns[i]) * 1e-9;
    // Only the coarse layers (a few hundred calls) get a median.
    if (s.layer == Layer::kEvaluate || s.layer == Layer::kPurge) {
      durations_ms[l].push_back(static_cast<double>(dur) * 1e-6);
    }
  }
  for (std::size_t l = 0; l < out.size(); ++l) {
    auto& d = durations_ms[l];
    if (d.empty()) continue;
    std::sort(d.begin(), d.end());
    out[l].p50_ms = d.size() % 2 ? d[d.size() / 2]
                                 : 0.5 * (d[d.size() / 2 - 1] + d[d.size() / 2]);
  }
  return out;
}

void Tracer::write_csv(const std::string& path) const {
  std::ofstream out(path);
  out << "layer,parent,begin_ns,end_ns\n";
  for (const Span& s : spans_) {
    out << layer_name(s.layer) << ','
        << (s.parent == kNone ? -1 : static_cast<std::int64_t>(s.parent))
        << ',' << s.begin_ns << ',' << s.end_ns << '\n';
  }
  if (!out) throw std::runtime_error("cannot write spans to " + path);
}

}  // namespace perfbench
