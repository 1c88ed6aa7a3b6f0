// Chaos property suite: seeded random fault schedules against every causal
// protocol. Each case generates a FaultPlan from a seed, runs a full cluster
// through it, stops the clients, lets recovery quiesce, and asserts the two
// invariants a fault may never break:
//
//   1. Safety: the causality oracle stays clean.
//   2. Liveness: every update that committed anywhere reaches all its
//      replicas once the faults heal (no silent loss).
//
// Saturn additionally must end in stream mode on a single agreed epoch —
// chaos schedules kill the serializer tree outright 30% of the time, so the
// automatic failure detector has to find the pre-deployed backup tree without
// any help from the test.
//
// The seeds of a sweep run concurrently on the ParallelSweep worker pool
// (SATURN_JOBS env or hardware concurrency; the tsan_smoke ctest runs this
// binary with SATURN_JOBS=4 under ThreadSanitizer to prove the runs are
// share-nothing). Simulations execute on workers and only produce verdict
// structs; all gtest assertions happen on the main thread, in seed order, so
// failures read identically whatever the worker count.
//
// Failures print the protocol, the seed and the full fault plan; the run
// reproduces from that line alone.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/fault/chaos.h"
#include "src/runtime/sweep.h"
#include "tests/test_util.h"

namespace saturn {
namespace {

struct ChaosCase {
  Protocol protocol = Protocol::kSaturn;
  uint64_t seed = 1;
  bool partial_replication = false;
  // Saturn: percent chance the plan kills the primary tree (needs a backup).
  uint32_t tree_kill_percent = 30;
};

// Everything the assertions need, extracted on the worker before the cluster
// is torn down. Plain data only: verdicts cross the thread boundary, gtest
// never does.
struct ChaosVerdict {
  std::string context;
  bool oracle_clean = false;
  std::string first_violation;
  size_t missing_count = 0;
  std::string first_missing;
  // Saturn only: per-DC end state.
  std::vector<bool> in_timestamp_mode;
  std::vector<uint32_t> epochs;
  // Retransmissions over the run: metadata links (datacenters and
  // serializers; Saturn only) and bulk channels (every datacenter).
  uint64_t link_retransmissions = 0;
  uint64_t bulk_retransmissions = 0;

  // Canonical one-line form; used by the cross-jobs determinism check.
  std::string ToString() const {
    std::string s = context + " clean=" + (oracle_clean ? "1" : "0") +
                    " missing=" + std::to_string(missing_count);
    for (bool ts : in_timestamp_mode) {
      s += ts ? " ts" : " stream";
    }
    for (uint32_t epoch : epochs) {
      s += " e" + std::to_string(epoch);
    }
    return s;
  }
};

ChaosVerdict RunChaosSim(const ChaosCase& c) {
  ClusterConfig config = SmallClusterConfig(c.protocol);
  ReplicaMap replicas =
      c.partial_replication
          ? SmallReplicas(config, CorrelationPattern::kUniform, 2)
          : SmallReplicas(config, CorrelationPattern::kFull);
  Cluster cluster(config, std::move(replicas), UniformClientHomes(3, 3),
                  SyntheticGenerators(DefaultWorkload()));

  ChaosOptions options;
  options.seed = c.seed;
  options.start = Millis(1500);
  options.end = Millis(3300);
  // The whole palette is fair game even under partial replication: metadata
  // and bulk links are reliable (reliable_link.h), so a lossy cut or crash can
  // delay but never strand a migrating client's migration label.
  options.allow_lossy = true;
  options.allow_crash = true;
  if (c.protocol == Protocol::kSaturn) {
    options.tree_kill_percent = c.tree_kill_percent;
    options.tree_epoch = 0;
    // Backup tree the failure detector can fail over to on its own.
    cluster.metadata_service()->DeployTree(1, StarTopology(config.dc_sites, kFrankfurt));
    for (DcId dc = 0; dc < 3; ++dc) {
      cluster.saturn_dc(dc)->set_fallback_timeout(Millis(150));
    }
  }
  FaultPlan plan = GenerateChaosPlan(options, config.dc_sites);
  cluster.InstallFaultPlan(plan);
  cluster.StopClientsAt(Millis(4000));
  cluster.Run(Seconds(1), Seconds(2), /*drain=*/Seconds(2));

  ChaosVerdict v;
  v.context = std::string("protocol=") + ProtocolName(c.protocol) +
              " seed=" + std::to_string(c.seed) + " plan=[" + plan.ToString() + "]";
  v.oracle_clean = cluster.oracle() != nullptr && cluster.oracle()->Clean();
  if (!v.oracle_clean && cluster.oracle() != nullptr &&
      !cluster.oracle()->violations().empty()) {
    v.first_violation = cluster.oracle()->violations().front();
  }
  auto missing = cluster.oracle()->MissingReplicas();
  v.missing_count = missing.size();
  if (!missing.empty()) {
    v.first_missing = missing.front();
  }
  if (c.protocol == Protocol::kSaturn) {
    for (DcId dc = 0; dc < 3; ++dc) {
      v.in_timestamp_mode.push_back(cluster.saturn_dc(dc)->in_timestamp_mode());
      v.epochs.push_back(cluster.saturn_dc(dc)->current_epoch());
      v.link_retransmissions += cluster.saturn_dc(dc)->link_retransmissions();
    }
    for (Serializer* s : cluster.metadata_service()->AllSerializers()) {
      v.link_retransmissions += s->link_retransmissions();
    }
  }
  for (DcId dc = 0; dc < 3; ++dc) {
    v.bulk_retransmissions += cluster.dc(dc)->bulk_retransmissions();
  }
  return v;
}

// Runs every case on the pool, then asserts in submission order.
void RunChaosSweep(const std::vector<ChaosCase>& cases) {
  std::vector<ChaosVerdict> verdicts = ParallelSweep(cases, ResolveJobs(), RunChaosSim);
  for (size_t i = 0; i < cases.size(); ++i) {
    const ChaosCase& c = cases[i];
    const ChaosVerdict& v = verdicts[i];
    EXPECT_TRUE(v.oracle_clean)
        << v.context << "\nfirst violation: " << v.first_violation;
    EXPECT_EQ(v.missing_count, 0u)
        << v.context << "\n" << v.missing_count
        << " updates missing replicas, first: " << v.first_missing;
    if (c.protocol == Protocol::kSaturn) {
      ASSERT_EQ(v.epochs.size(), 3u) << v.context;
      for (DcId dc = 0; dc < 3; ++dc) {
        EXPECT_FALSE(v.in_timestamp_mode[dc])
            << v.context << "\ndc " << dc << " stuck in timestamp mode";
        EXPECT_EQ(v.epochs[dc], v.epochs[0])
            << v.context << "\ndc " << dc << " disagrees on the epoch";
      }
    }
  }
}

std::vector<ChaosCase> SeedSweep(Protocol protocol, uint64_t first, uint64_t last) {
  std::vector<ChaosCase> cases;
  for (uint64_t seed = first; seed <= last; ++seed) {
    ChaosCase c;
    c.protocol = protocol;
    c.seed = seed;
    cases.push_back(c);
  }
  return cases;
}

TEST(ChaosProperty, SaturnSurvivesRandomFaultSchedules) {
  RunChaosSweep(SeedSweep(Protocol::kSaturn, 1, 20));
}

TEST(ChaosProperty, GentleRainSurvivesRandomFaultSchedules) {
  RunChaosSweep(SeedSweep(Protocol::kGentleRain, 1, 20));
}

TEST(ChaosProperty, CureSurvivesRandomFaultSchedules) {
  RunChaosSweep(SeedSweep(Protocol::kCure, 1, 20));
}

TEST(ChaosProperty, SaturnPartialReplicationSurvivesChaos) {
  // Genuine partial replication adds client migrations (and their labels) to
  // everything the full-replication suites already stress.
  std::vector<ChaosCase> cases = SeedSweep(Protocol::kSaturn, 101, 110);
  for (ChaosCase& c : cases) {
    c.partial_replication = true;
    c.tree_kill_percent = 0;  // keep the tree; link faults are the story here
  }
  RunChaosSweep(cases);
}

TEST(ChaosProperty, RetransmissionCountsArePinned) {
  // The channel ticks skip their window walks only when no entry can be due,
  // so every retransmission happens exactly as with a walk on every tick.
  // The counts below were measured with that every-tick walk.
  struct Pinned {
    Protocol protocol;
    uint64_t seed;
    bool partial;
    uint64_t link;
    uint64_t bulk;
  };
  const std::vector<Pinned> pinned = {
      {Protocol::kSaturn, 1, false, 6084, 5222},   {Protocol::kSaturn, 2, false, 2138, 1700},
      {Protocol::kSaturn, 3, false, 13932, 1271},  {Protocol::kSaturn, 4, false, 4759, 3310},
      {Protocol::kSaturn, 5, false, 0, 2535},      {Protocol::kSaturn, 6, false, 14587, 2226},
      {Protocol::kSaturn, 101, true, 6060, 4439},  {Protocol::kSaturn, 102, true, 3331, 1361},
      {Protocol::kSaturn, 103, true, 11059, 5616}, {Protocol::kGentleRain, 1, false, 0, 4050},
      {Protocol::kGentleRain, 2, false, 0, 6763},  {Protocol::kCure, 1, false, 0, 4085},
      {Protocol::kCure, 2, false, 0, 6734},
  };
  std::vector<ChaosCase> cases;
  for (const Pinned& p : pinned) {
    ChaosCase c;
    c.protocol = p.protocol;
    c.seed = p.seed;
    c.partial_replication = p.partial;
    c.tree_kill_percent = p.partial ? 0 : 30;
    cases.push_back(c);
  }
  std::vector<ChaosVerdict> verdicts = ParallelSweep(cases, ResolveJobs(), RunChaosSim);
  uint64_t link_total = 0;
  uint64_t bulk_total = 0;
  for (size_t i = 0; i < pinned.size(); ++i) {
    EXPECT_EQ(verdicts[i].link_retransmissions, pinned[i].link) << verdicts[i].context;
    EXPECT_EQ(verdicts[i].bulk_retransmissions, pinned[i].bulk) << verdicts[i].context;
    link_total += verdicts[i].link_retransmissions;
    bulk_total += verdicts[i].bulk_retransmissions;
  }
  // The pinned cases do exercise both channels' retransmission paths.
  EXPECT_GT(link_total, 0u);
  EXPECT_GT(bulk_total, 0u);
}

TEST(ChaosProperty, VerdictsAreIdenticalAcrossJobCounts) {
  // The ordering guarantee, end to end: a serial sweep and a 4-worker sweep
  // of the same cases must produce byte-identical verdicts.
  std::vector<ChaosCase> cases = SeedSweep(Protocol::kSaturn, 1, 6);
  std::vector<ChaosVerdict> serial = ParallelSweep(cases, 1, RunChaosSim);
  std::vector<ChaosVerdict> parallel = ParallelSweep(cases, 4, RunChaosSim);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].ToString(), parallel[i].ToString()) << "case " << i;
    EXPECT_EQ(serial[i].first_violation, parallel[i].first_violation);
    EXPECT_EQ(serial[i].first_missing, parallel[i].first_missing);
  }
}

}  // namespace
}  // namespace saturn
