// The benchmark's four workloads. One round builds a workload's inputs and
// cluster from the seed, runs it once, reads the program's counters and runs
// the output checks; main.cc repeats rounds for the run length.
#ifndef SATBENCH_WORKLOADS_H_
#define SATBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace satbench {

// What one round runs on top of the workload's own configuration.
enum class RoundKind {
  kPlain,        // the measured configuration
  kAttribution,  // plus the visibility-attribution profiler
  kNoOracle,     // faults_oracle without the causality oracle (same events)
  kEventual,     // faults_oracle's plan on eventual consistency: a negative control
};

// A value and the number of samples behind it (1 for a ratio of totals).
struct Sample {
  double value = 0;
  uint64_t count = 0;
};

struct RoundResult {
  // Host clock, seconds.
  double setup_s = 0;  // first library call to the first simulated event
  double run_s = 0;    // Cluster::Run
  std::map<std::string, double> spans;  // per-layer spans inside setup

  // Simulated outputs; they repeat exactly for a seed.
  uint64_t executed_events = 0;
  uint64_t ops_completed = 0;  // client operations completed inside Run
  std::map<std::string, Sample> sim;     // sim_* and wire_bytes_per_op
  std::map<std::string, Sample> layers;  // per-layer counters that apply here

  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t unanswered = 0;  // requests lost with a crashed datacenter (not failures)
  uint64_t oracle_violations = 0;
  double peak_rss_mb = 0;    // process high-water mark once the round's checks ran
  uint64_t allocs = 0;       // heap allocations inside Run
  uint64_t alloc_bytes = 0;
  std::vector<std::string> failures;  // what the failed operations were
  std::vector<std::string> problems;  // checks that make the run incorrect
};

const std::vector<std::string>& WorkloadNames();

// `controls` additionally runs the checks' negative controls and compares
// the supplied custom tree against the one the cluster generates itself.
RoundResult RunRound(const std::string& workload, uint64_t seed, RoundKind kind,
                     bool controls);

}  // namespace satbench

#endif  // SATBENCH_WORKLOADS_H_
