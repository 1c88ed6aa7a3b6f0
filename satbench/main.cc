// satbench: the benchmark binary. One process runs one workload for one seed
// on a single thread, repeating whole rounds (set-up, Run, checks) until the
// run length has passed, and prints the run's metrics as one JSON line.
//
//   satbench --workload NAME --seed N --seconds S --trace 0|1 [--layers-out PATH]
//
// --trace 0 reports the end-to-end metrics: host metrics are read from the
// fastest round, sim_* metrics and wire_bytes_per_op are simulated quantities that
// every round must reproduce exactly. --trace 1 interleaves rounds with the
// attribution profiler on (and, on faults_oracle, with the oracle off) and
// reports the per-layer metrics; its simulated outputs must equal the
// untraced rounds'. A traced faults_oracle run also runs the eventual-consistency
// control round.
#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "workloads.h"

#ifndef SATBENCH_COMPILER
#define SATBENCH_COMPILER "unknown"
#endif
#ifndef SATBENCH_BUILD_TYPE
#define SATBENCH_BUILD_TYPE "unknown"
#endif

namespace satbench {
namespace {

constexpr size_t kMinRounds = 3;

struct Metric {
  const char* name;
  const char* unit;
  // Per-layer metrics only: the workloads the metric measures something on,
  // space-separated; null for every workload. Fixed here rather than taken
  // from what a round reported, so a metric the program stops producing
  // makes the run incorrect instead of reading 0.
  const char* on = nullptr;
};

constexpr char kFacebook[] = "fb_saturn fb_cure";
constexpr char kSaturnWorkloads[] = "fb_saturn mmusers_open faults_oracle";

// Every metric the run prints, in BENCHMARK.json order.
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"host_ops_per_s", "ops/s"},
    {"peak_rss_mb", "MB"},
    {"sim_throughput_ops", "ops/s"},
    {"sim_visibility_p50_ms", "ms"},
    {"sim_visibility_p99_ms", "ms"},
    {"sim_op_latency_p50_ms", "ms"},
    {"sim_op_latency_p99_ms", "ms"},
    {"wire_bytes_per_op", "B/op"},
};

constexpr Metric kPerLayer[] = {
    {"workload.graph_s", "s", kFacebook},
    {"workload.partition_s", "s", kFacebook},
    {"workload.replica_map_s", "s", "mmusers_open faults_oracle"},
    {"workload.migrations_per_op", "1/op"},
    {"workload.attach_ms_mean", "ms", kFacebook},
    {"workload.queue_wait_p99_ms", "ms", "mmusers_open"},
    {"saturn.tree_solve_s", "s", kSaturnWorkloads},
    {"saturn.labels_routed_per_update", "1/update", "fb_saturn faults_oracle"},
    {"saturn.link_retransmissions", "count", kSaturnWorkloads},
    {"saturn.ts_mode_ms", "ms", kSaturnWorkloads},
    {"saturn.reconfig_ms_mean", "ms", "faults_oracle"},
    {"runtime.cluster_build_s", "s"},
    {"runtime.run_s", "s"},
    {"sim.events_per_op", "1/op"},
    {"sim.host_ns_per_event", "ns"},
    {"net.messages_per_op", "1/op"},
    {"net.metadata_bytes_per_op", "B/op"},
    {"net.bulk_bytes_per_op", "B/op"},
    {"net.control_bytes_per_op", "B/op"},
    {"core.oracle_s", "s", "faults_oracle"},
    {"vis.commit_sink_p99_ms", "ms"},
    {"vis.serializer_p99_ms", "ms"},
    {"vis.tree_p99_ms", "ms"},
    {"vis.buffer_p99_ms", "ms"},
    {"vis.stability_p99_ms", "ms"},
    {"fault.failover_ms_mean", "ms", "faults_oracle"},
    {"fault.messages_dropped", "count", "faults_oracle"},
    {"kvstore.keys_stored", "count"},
    {"alloc.per_event", "1/event"},
    {"alloc.bytes_per_op", "B/op"},
    {"obs.attribution_overhead_pct", "%"},
};

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string layers_out;
};

[[noreturn]] void Usage(const char* error) {
  std::fprintf(stderr,
               "satbench: %s\nusage: satbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--layers-out PATH]\n",
               error);
  std::exit(2);
}

bool ParseUint(const char* text, uint64_t* out) {
  if (text == nullptr || *text == '\0' || *text == '-') {
    return false;
  }
  char* end = nullptr;
  *out = std::strtoull(text, &end, 10);
  return *end == '\0';
}

Options ParseOptions(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed" && ParseUint(value, &number)) {
      options.seed = number;
      have_seed = true;
    } else if (flag == "--seconds" && ParseUint(value, &number) && number >= 1 &&
               number <= 600) {
      options.seconds = static_cast<double>(number);
      have_seconds = true;
    } else if (flag == "--trace" && ParseUint(value, &number) && number <= 1) {
      options.trace = number == 1;
      have_trace = true;
    } else if (flag == "--layers-out") {
      options.layers_out = value;
    } else {
      Usage(("bad flag or value: " + flag + " " + value).c_str());
    }
  }
  const auto& names = WorkloadNames();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  if (!have_seed || !have_seconds || !have_trace) {
    Usage("--seed, --seconds and --trace are required");
  }
  return options;
}

// Every round of a run replays exactly the same events (CheckSame below), so
// rounds differ only in how much the host interfered, and interference only
// adds time. The fastest round is the closest reading of the program's own
// cost: on a shared 4-thread host whose speed swings 1.5x for seconds at a
// time, its spread over five runs was 5-7% where the median round's was
// 15-28%.
// The CPUs this process may run on.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

void PinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

template <typename Fn>
double FastestOf(const std::vector<RoundResult>& rounds, Fn&& fn) {
  double fastest = 0;
  for (size_t i = 0; i < rounds.size(); ++i) {
    double value = fn(rounds[i]);
    fastest = i == 0 ? value : std::min(fastest, value);
  }
  return fastest;
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  return buf;
}

std::string JsonList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonString(items[i]);
  }
  return out + "]";
}

// A round must reproduce round zero's simulated outputs exactly: the
// simulator is deterministic for a seed.
void CheckSame(const RoundResult& want, const RoundResult& got, const char* what,
               std::vector<std::string>* problems) {
  bool same = want.executed_events == got.executed_events &&
              want.ops_completed == got.ops_completed && want.attempted == got.attempted &&
              want.failed == got.failed && want.sim.size() == got.sim.size();
  for (const auto& [name, sample] : want.sim) {
    auto it = got.sim.find(name);
    same = same && it != got.sim.end() && it->second.value == sample.value &&
           it->second.count == sample.count;
  }
  if (!same) {
    problems->push_back(std::string(what) + " differ from the first untraced round");
  }
}

bool AppliesTo(const Metric& metric, const std::string& workload) {
  if (metric.on == nullptr) {
    return true;
  }
  std::string on = std::string(" ") + metric.on + " ";
  return on.find(" " + workload + " ") != std::string::npos;
}

int Main(int argc, char** argv) {
  Options options = ParseOptions(argc, argv);
  // Keep freed memory mapped between rounds: otherwise every round hands its
  // heap back to the kernel and faults it in again, and the cost of those
  // page faults swings widely on a shared host. Only the first round pays
  // first-touch faults, so the host figures leave them out; the run record
  // reports that cold round's set-up time and host rate next to them.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  const bool faults = options.workload == "faults_oracle";

  // --- Rounds --------------------------------------------------------------------
  std::vector<RoundResult> plain;
  std::vector<RoundResult> attributed;
  std::vector<RoundResult> no_oracle;
  RoundResult eventual;
  auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };
  // Each round runs pinned to the next allowed CPU in turn. On a shared host
  // the CPUs run at different speeds for minutes at a time (a fixed loop
  // took 0.20-0.30 s on one and 0.30-0.38 s on another); left to the
  // scheduler, a whole run can sit on a slow one. Rotating makes every run
  // sample every CPU, and the fastest round then comes from the fastest.
  const std::vector<int> cpus = AllowedCpus();
  while (plain.size() < kMinRounds || elapsed() < options.seconds) {
    if (!cpus.empty()) {
      PinTo(cpus[plain.size() % cpus.size()]);
    }
    plain.push_back(RunRound(options.workload, options.seed, RoundKind::kPlain, plain.empty()));
    if (options.trace) {
      attributed.push_back(
          RunRound(options.workload, options.seed, RoundKind::kAttribution, false));
      if (faults) {
        no_oracle.push_back(RunRound(options.workload, options.seed, RoundKind::kNoOracle, false));
      }
    }
  }
  if (options.trace && faults) {
    eventual = RunRound(options.workload, options.seed, RoundKind::kEventual, false);
  }

  // --- Correctness -----------------------------------------------------------------
  const RoundResult& first = plain.front();
  std::vector<std::string> problems;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const auto* rounds : {&plain, &attributed}) {
    for (const RoundResult& r : *rounds) {
      problems.insert(problems.end(), r.problems.begin(), r.problems.end());
      attempted += r.attempted;
      failed += r.failed;
      CheckSame(first, r, rounds == &plain ? "untraced rounds" : "traced rounds", &problems);
    }
  }
  for (const RoundResult& r : no_oracle) {
    if (r.executed_events != first.executed_events) {
      problems.push_back("turning the oracle off changed the executed events");
    }
  }
  problems.insert(problems.end(), eventual.problems.begin(), eventual.problems.end());

  // --- Metrics ---------------------------------------------------------------------
  struct Value {
    double value = 0;
    uint64_t samples = 0;
    bool applies = false;
  };
  std::vector<std::pair<Metric, Value>> out;
  std::vector<std::string> not_applicable;
  const double run_s = FastestOf(plain, [](const RoundResult& r) { return r.run_s; });
  if (!options.trace) {
    auto host = [&](const char* name) -> Value {
      std::string n = name;
      if (n == "setup_s") {
        return {FastestOf(plain, [](const RoundResult& r) { return r.setup_s; }), plain.size(),
                true};
      }
      if (n == "host_ops_per_s") {
        return {static_cast<double>(first.ops_completed) / run_s, plain.size(), true};
      }
      // Later rounds reuse the heap the first one grew; their high-water
      // mark creeps with the number of rounds, which depends on host speed.
      return {first.peak_rss_mb, 1, true};
    };
    for (const Metric& m : kEndToEnd) {
      auto it = first.sim.find(m.name);
      out.emplace_back(m, it != first.sim.end()
                              ? Value{it->second.value, it->second.count, true}
                              : host(m.name));
    }
  } else {
    std::map<std::string, Value> layers;
    for (const auto& [name, sample] : first.layers) {
      layers[name] = {sample.value, sample.count, true};
    }
    for (const auto& [name, sample] : attributed.front().layers) {
      if (name.rfind("vis.", 0) == 0) {
        layers[name] = {sample.value, sample.count, true};
      }
    }
    for (const auto& [name, seconds] : first.spans) {
      std::string span = name;
      layers[span] = {FastestOf(plain, [&](const RoundResult& r) { return r.spans.at(span); }),
                      plain.size(), true};
    }
    layers["runtime.run_s"] = {run_s, plain.size(), true};
    layers["sim.host_ns_per_event"] = {
        run_s * 1e9 / static_cast<double>(std::max<uint64_t>(first.executed_events, 1)),
        plain.size(), true};
    const double traced_s = FastestOf(attributed, [](const RoundResult& r) { return r.run_s; });
    layers["obs.attribution_overhead_pct"] = {(traced_s / run_s - 1.0) * 100.0,
                                              attributed.size(), true};
    if (faults) {
      const double off_s = FastestOf(no_oracle, [](const RoundResult& r) { return r.run_s; });
      layers["core.oracle_s"] = {run_s - off_s, no_oracle.size(), true};
    }
    // The traced line carries every per-layer metric; one that does not
    // apply to the workload prints 0 and is named in the run record.
    for (const Metric& m : kPerLayer) {
      auto it = layers.find(m.name);
      const bool applies = AppliesTo(m, options.workload);
      if (applies != (it != layers.end())) {
        problems.push_back(std::string(m.name) +
                           (applies ? " was not reported" : " was reported but does not apply"));
      }
      if (!applies) {
        not_applicable.push_back(m.name);
      }
      out.emplace_back(m, applies && it != layers.end() ? it->second : Value{});
    }
  }

  // --- Report ----------------------------------------------------------------------
  std::string samples = "{";
  std::string metrics = "{";
  for (size_t i = 0; i < out.size(); ++i) {
    const auto& [metric, value] = out[i];
    const char* sep = i > 0 ? ", " : "";
    metrics += std::string(sep) + JsonString(metric.name) + ": {\"value\": " +
               JsonNumber(value.value) + ", \"unit\": " + JsonString(metric.unit) + "}";
    if (value.applies) {
      samples += std::string(samples.size() > 1 ? ", " : "") + JsonString(metric.name) + ": " +
                 std::to_string(value.samples);
    }
  }
  samples += "}";
  metrics += "}";

  if (!options.layers_out.empty()) {
    FILE* file = std::fopen(options.layers_out.c_str(), "w");
    if (file == nullptr) {
      std::fprintf(stderr, "satbench: cannot write %s\n", options.layers_out.c_str());
      return 1;
    }
    std::fprintf(file, "{\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"metrics\": {",
                 JsonString(options.workload).c_str(),
                 static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0);
    bool any = false;
    for (const auto& [metric, value] : out) {
      if (value.applies) {
        std::fprintf(file, "%s\n  %s: {\"value\": %s, \"unit\": %s, \"samples\": %llu}",
                     any ? "," : "", JsonString(metric.name).c_str(),
                     JsonNumber(value.value).c_str(), JsonString(metric.unit).c_str(),
                     static_cast<unsigned long long>(value.samples));
        any = true;
      }
    }
    std::fprintf(file, "\n}}\n");
    std::fclose(file);
  }

  std::sort(problems.begin(), problems.end());
  problems.erase(std::unique(problems.begin(), problems.end()), problems.end());
  std::string extra;
  if (options.trace && faults) {
    extra += ", \"eventual_oracle_violations\": " + std::to_string(eventual.oracle_violations);
  }
  if (options.trace) {
    extra += ", \"not_applicable\": " + JsonList(not_applicable);
  }
  std::printf(
      "record: {\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"rounds\": %zu, "
      "\"traced_rounds\": %zu, \"compiler\": %s, \"build_type\": %s, \"executed_events\": %llu, "
      "\"first_round\": {\"setup_s\": %s, \"host_ops_per_s\": %s}, \"samples\": %s, "
      "\"failures_per_round\": %s, \"unanswered_per_round\": %llu%s, \"problems\": %s}\n",
      JsonString(options.workload).c_str(), static_cast<unsigned long long>(options.seed),
      options.trace ? 1 : 0, plain.size(), attributed.size(),
      JsonString(SATBENCH_COMPILER).c_str(), JsonString(SATBENCH_BUILD_TYPE).c_str(),
      static_cast<unsigned long long>(first.executed_events), JsonNumber(first.setup_s).c_str(),
      JsonNumber(static_cast<double>(first.ops_completed) / first.run_s).c_str(),
      samples.c_str(), JsonList(first.failures).c_str(),
      static_cast<unsigned long long>(first.unanswered), extra.c_str(),
      JsonList(problems).c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              problems.empty() ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace satbench

int main(int argc, char** argv) { return satbench::Main(argc, argv); }
