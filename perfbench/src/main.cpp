// adr_perfbench — the ActiveDR benchmark's workload program.
//
//   adr_perfbench key       --workload W --size S --seed N --seconds X
//   adr_perfbench gen       --workload W --size S --seed N --seconds X --out F
//   adr_perfbench reference --workload W --size S --seed N --seconds X
//                           --input F --out D
//   adr_perfbench run       --workload W --size S --seed N --seconds X
//                           --input F --expected D --trace 0|1
//                           --run-dir DIR [--spans-out F]
//
// `key` prints a name that changes with every input-shaping parameter (the
// cache key of the input and reference files), `gen` writes the seeded
// input file, `reference` replays it through the
// plain configuration and writes the digests every run is checked against,
// and `run` does one measured replay and prints one JSON line with the raw
// measurements, which perfbench/run.py turns into the benchmark's metrics.

#include <cstdio>
#include <iostream>
#include <map>
#include <sstream>
#include <string>

#include "replay.hpp"
#include "workload.hpp"

namespace {

using perfbench::Layer;

std::map<std::string, std::string> parse_flags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::invalid_argument("bad flag " + key);
    flags[key.substr(2)] = argv[i + 1];
  }
  return flags;
}

std::string need(const std::map<std::string, std::string>& flags,
                 const std::string& key) {
  const auto it = flags.find(key);
  if (it == flags.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' ? ' ' : c);
  }
  return out + "\"";
}

template <typename Seq>
std::string json_array(const Seq& values) {
  std::string out = "[";
  for (const auto& v : values) {
    if (out.size() > 1) out += ",";
    out += json_number(static_cast<double>(v));
  }
  return out + "]";
}

template <typename Map>
std::string json_object(const Map& values) {
  std::string out = "{";
  for (const auto& [key, v] : values) {
    if (out.size() > 1) out += ",";
    out += json_string(key) + ":" + json_number(static_cast<double>(v));
  }
  return out + "}";
}

std::string result_json(const perfbench::WorkloadSpec& spec,
                        const perfbench::RunResult& r, bool trace) {
  std::ostringstream out;
  out << "{\"workload\":" << json_string(spec.name)
      << ",\"seed\":" << spec.seed << ",\"users\":" << spec.users
      << ",\"span_days\":" << spec.span_days << ",\"shards\":" << r.shards
      << ",\"trace\":" << (trace ? "true" : "false")
      << ",\"setup_s\":" << json_array(r.setup_s)
      << ",\"replay_s\":" << json_number(r.replay_s)
      << ",\"live_events\":" << r.live_events
      << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
      << ",\"trigger_ms\":" << json_array(r.trigger_ms)
      << ",\"refresh_ms\":" << json_array(r.refresh_ms)
      << ",\"rss_peak_bytes\":" << r.rss_peak_bytes
      << ",\"counts\":" << json_object(r.counts)
      << ",\"state\":" << json_object(r.state) << ",\"problems\":[";
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    out << (i ? "," : "") << json_string(r.problems[i]);
  }
  out << "],\"layers\":{";
  bool first = true;
  for (std::size_t l = 0; l < r.layers.size(); ++l) {
    const auto& s = r.layers[l];
    if (s.calls == 0) continue;
    out << (first ? "" : ",")
        << json_string(perfbench::layer_name(static_cast<Layer>(l)))
        << ":{\"calls\":" << s.calls
        << ",\"self_s\":" << json_number(s.self_s)
        << ",\"p50_ms\":" << json_number(s.p50_ms) << "}";
    first = false;
  }
  out << "}}";
  return out.str();
}

int run(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: adr_perfbench key|gen|reference|run --workload W ...\n";
    return 2;
  }
  const std::string cmd = argv[1];
  const auto flags = parse_flags(argc, argv);
  const perfbench::WorkloadSpec spec = perfbench::make_spec(
      need(flags, "workload"), need(flags, "size"),
      std::stoull(need(flags, "seed")), std::stod(need(flags, "seconds")));

  if (cmd == "key") {
    std::cout << perfbench::input_key(spec) << "\n";
    return 0;
  }
  if (cmd == "gen") {
    perfbench::generate_input(spec, need(flags, "out"));
    return 0;
  }
  perfbench::InputReader input(need(flags, "input"));
  if (cmd == "reference") {
    perfbench::Tracer tracer(false);
    perfbench::RunOptions options;
    options.reference = true;
    const auto r = perfbench::run_workload(spec, input, options, tracer);
    if (!r.problems.empty() || r.failed != 0) {
      std::cerr << "reference replay failed: "
                << (r.problems.empty() ? "refused applies" : r.problems[0])
                << "\n";
      return 1;
    }
    perfbench::save_digests(r.digests, need(flags, "out"));
    return 0;
  }
  if (cmd != "run") throw std::invalid_argument("unknown command " + cmd);

  perfbench::Digests expected;
  perfbench::RunOptions options;
  const bool trace = need(flags, "trace") == "1";
  options.run_dir = need(flags, "run-dir");
  if (perfbench::load_digests(need(flags, "expected"), expected)) {
    options.expected = &expected;
  }
  perfbench::Tracer tracer(trace);
  perfbench::RunResult r = perfbench::run_workload(spec, input, options, tracer);
  if (!options.expected) r.problems.push_back("no reference digests");
  if (trace && flags.count("spans-out")) {
    tracer.write_csv(flags.at("spans-out"));
  }
  std::cout << result_json(spec, r, trace) << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "adr_perfbench: " << e.what() << "\n";
    return 1;
  }
}
