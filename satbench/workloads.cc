#include "workloads.h"

#include <sys/resource.h>

#include <chrono>
#include <memory>
#include <optional>
#include <utility>

#include "alloc_count.h"
#include "checks.h"
#include "src/runtime/cluster.h"
#include "src/saturn/config_generator.h"
#include "src/workload/facebook_workload.h"
#include "src/workload/partitioner.h"
#include "src/workload/social_graph.h"

namespace satbench {
namespace {

using namespace saturn;

// --- Workload make-up (README.md explains each choice) ----------------------

// fb_saturn / fb_cure: the Facebook-style benchmark of section 7.4 at the
// size of the paper's New Orleans trace. The graph and the client users play
// the part of that fixed dataset, so they come from a constant seed; the run
// seed drives the clients' operation streams and the datacenters.
constexpr uint64_t kFbGraphSeed = 11;
constexpr uint32_t kFbUsers = 61096;
constexpr uint32_t kFbEdgesPerNode = 15;
constexpr uint32_t kFbMinReplicas = 2;
constexpr uint32_t kFbMaxReplicas = 3;
constexpr uint32_t kFbClients = 1400;
// Enough partitions per datacenter that a power-law hub's hot key does not
// saturate the partition it shares with other users' keys.
constexpr uint32_t kFbGears = 16;
constexpr SimTime kFbWarmup = Millis(500);
constexpr SimTime kFbMeasure = Millis(1000);
constexpr SimTime kFbDrain = Millis(1000);

// mmusers_open: a million open-loop sessions, steady Poisson arrivals.
constexpr uint64_t kMmSessions = 1000000;
constexpr double kMmRatePerDc = 2000;
constexpr double kMmZipf = 0.9;
constexpr uint32_t kMmMaxQueue = 8;
constexpr SimTime kMmBatchDeadline = Millis(1);
constexpr SimTime kMmWarmup = Millis(500);
constexpr SimTime kMmMeasure = Millis(1000);
constexpr SimTime kMmDrain = Millis(1000);

// faults_oracle: 5 regions, uniform degree-2 partial replication, a latency
// drift that forces a live reconfiguration, then a lossy cut + heal and a
// datacenter crash + recovery; clients stop before the end.
constexpr uint32_t kFoDcs = 5;
constexpr uint64_t kFoKeys = 10000;
constexpr uint32_t kFoDegree = 2;
constexpr uint32_t kFoClientsPerDc = 16;
// The phases do not overlap: the drift's reconfiguration settles before the
// cut, and the datacenter crash follows the heal.
constexpr char kFoDriftPlan[] = "1000:step:0-3:200;1000:step:1-3:220";
constexpr char kFoFaultPlan[] =
    "3500:cut:0-2:drop;4000:heal:0-2;4500:crash:4;5000:recover:4";
constexpr SimTime kFoStopClients = Millis(5500);
constexpr SimTime kFoWarmup = Millis(1000);
constexpr SimTime kFoMeasure = Millis(5000);
constexpr SimTime kFoDrain = Millis(2000);

enum class Shape { kFacebook, kOpenLoop, kFaults };

Shape ShapeOf(const std::string& workload) {
  if (workload == "fb_saturn" || workload == "fb_cure") {
    return Shape::kFacebook;
  }
  if (workload == "mmusers_open") {
    return Shape::kOpenLoop;
  }
  SAT_CHECK_MSG(workload == "faults_oracle", "unknown workload %s", workload.c_str());
  return Shape::kFaults;
}

class Stopwatch {
 public:
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_ = std::chrono::steady_clock::now();
};

// Runs `fn`, storing its host duration under `name`.
template <typename Fn>
auto Span(RoundResult& r, const char* name, Fn&& fn) {
  Stopwatch watch;
  auto value = fn();
  r.spans[name] = watch.Seconds();
  return value;
}

// Counts the operations closed-loop clients issue: every Next() is one
// attempted operation.
struct OpCounts {
  uint64_t issued = 0;
  uint64_t updates = 0;
};

class CountingGenerator : public OpGenerator {
 public:
  CountingGenerator(std::unique_ptr<OpGenerator> inner, OpCounts* counts)
      : inner_(std::move(inner)), counts_(counts) {}

  PlannedOp Next(DcId home, Rng& rng) override {
    PlannedOp op = inner_->Next(home, rng);
    ++counts_->issued;
    if (op.kind == PlannedOp::Kind::kUpdate) {
      ++counts_->updates;
    }
    return op;
  }

 private:
  std::unique_ptr<OpGenerator> inner_;
  OpCounts* counts_;
};

double PerOp(double total, uint64_t ops) { return ops == 0 ? 0 : total / static_cast<double>(ops); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"fb_saturn", "fb_cure", "mmusers_open",
                                                  "faults_oracle"};
  return kNames;
}

RoundResult RunRound(const std::string& workload, uint64_t seed, RoundKind kind,
                     bool controls) {
  const Shape shape = ShapeOf(workload);
  RoundResult r;
  OpCounts counts;
  FaultPlan fault_plan;
  DriftPlan drift_plan;
  SimTime warmup = 0;
  SimTime measure = 0;
  SimTime drain = 0;

  // --- Set-up: every random input but the Facebook dataset comes from the seed -
  Stopwatch setup;
  ClusterConfig config;
  config.seed = seed;
  config.dc.num_gears = 4;
  config.latencies = Ec2Latencies();
  config.trace.attribution = kind == RoundKind::kAttribution;
  std::unique_ptr<SocialGraph> graph;  // outlives the cluster: generators point into it
  std::optional<ReplicaMap> replicas;
  std::vector<DcId> homes;
  GeneratorFactory factory;

  switch (shape) {
    case Shape::kFacebook: {
      config.protocol = workload == "fb_cure" ? Protocol::kCure : Protocol::kSaturn;
      config.dc_sites = Ec2Sites();
      config.dc.num_gears = kFbGears;
      SocialGraphConfig graph_config;
      graph_config.num_users = kFbUsers;
      graph_config.edges_per_node = kFbEdgesPerNode;
      graph_config.seed = kFbGraphSeed;
      graph = Span(r, "workload.graph_s", [&] {
        return std::make_unique<SocialGraph>(SocialGraph::Generate(graph_config));
      });
      PartitionerConfig part_config;
      part_config.num_dcs = kNumEc2Regions;
      part_config.min_replicas = kFbMinReplicas;
      part_config.max_replicas = kFbMaxReplicas;
      Partitioning part = Span(r, "workload.partition_s", [&] {
        return PartitionSocialGraph(*graph, part_config, config.dc_sites, config.latencies);
      });
      // Distinct users on a fixed stride; each client sits at its user's
      // primary datacenter.
      Rng pick(kFbGraphSeed);
      uint64_t offset = pick.NextBounded(kFbUsers);
      std::vector<uint32_t> users(kFbClients);
      homes.resize(kFbClients);
      for (uint32_t i = 0; i < kFbClients; ++i) {
        users[i] = static_cast<uint32_t>((offset + uint64_t{i} * 131) % kFbUsers);
        homes[i] = part.primary[users[i]];
      }
      replicas.emplace(std::move(part.replicas));
      factory = [g = graph.get(), users = std::move(users), c = &counts](
                    const ReplicaMap&, DcId, uint32_t index) {
        return std::make_unique<CountingGenerator>(
            std::make_unique<FacebookOpGenerator>(g, users[index], FacebookMixConfig{}), c);
      };
      warmup = kFbWarmup;
      measure = kFbMeasure;
      drain = kFbDrain;
      break;
    }
    case Shape::kOpenLoop: {
      config.protocol = Protocol::kSaturn;
      config.dc_sites = Ec2Sites();
      config.dc.batch_deadline = kMmBatchDeadline;
      OpenLoopConfig& ol = config.open_loop;
      ol.sessions = kMmSessions;
      ol.arrival_rate = kMmRatePerDc;
      ol.zipf_theta = kMmZipf;
      ol.max_queue = kMmMaxQueue;
      // Arrivals stop at the end of the measured window; queued arrivals are
      // still served, so the drain empties every session.
      std::string error;
      std::string stop = std::to_string((kMmWarmup + kMmMeasure) / 1000) + ":rate:*:0";
      SAT_CHECK_MSG(ParseArrivalPlan(stop, &ol.plan, &error), "%s", error.c_str());
      KeyspaceConfig keyspace;
      keyspace.num_keys = kMmSessions;  // session user ids double as keys
      keyspace.pattern = CorrelationPattern::kFull;
      keyspace.seed = seed;
      replicas = Span(r, "workload.replica_map_s", [&] {
        return std::optional<ReplicaMap>(
            ReplicaMap::Procedural(keyspace, config.dc_sites, config.latencies));
      });
      warmup = kMmWarmup;
      measure = kMmMeasure;
      drain = kMmDrain;
      break;
    }
    case Shape::kFaults: {
      config.protocol = kind == RoundKind::kEventual ? Protocol::kEventual : Protocol::kSaturn;
      config.dc_sites = Ec2Sites(kFoDcs);
      config.enable_oracle = kind != RoundKind::kNoOracle;
      config.dynamic.enabled = config.protocol == Protocol::kSaturn;
      KeyspaceConfig keyspace;
      keyspace.num_keys = kFoKeys;
      keyspace.pattern = CorrelationPattern::kUniform;
      keyspace.replication_degree = kFoDegree;
      keyspace.seed = seed;
      replicas = Span(r, "workload.replica_map_s", [&] {
        return std::optional<ReplicaMap>(
            ReplicaMap::Generate(keyspace, config.dc_sites, config.latencies));
      });
      homes = UniformClientHomes(kFoDcs, kFoClientsPerDc);
      factory = [c = &counts](const ReplicaMap& map, DcId, uint32_t) {
        return std::make_unique<CountingGenerator>(
            std::make_unique<SyntheticOpGenerator>(&map, SyntheticOpGenerator::Config{}), c);
      };
      std::string error;
      SAT_CHECK_MSG(ParseDriftPlan(kFoDriftPlan, &drift_plan, &error), "%s", error.c_str());
      SAT_CHECK_MSG(ParseFaultPlan(kFoFaultPlan, &fault_plan, &error), "%s", error.c_str());
      warmup = kFoWarmup;
      measure = kFoMeasure;
      drain = kFoDrain;
      break;
    }
  }

  const Protocol protocol = config.protocol;
  const std::vector<SiteId> sites = config.dc_sites;
  if (protocol == Protocol::kSaturn) {
    // The tree solve the cluster would run itself, timed here and handed over
    // as a custom tree.
    config.custom_tree = Span(r, "saturn.tree_solve_s", [&] {
      SolverInput input;
      input.dc_sites = config.dc_sites;
      input.candidate_sites = config.dc_sites;
      input.latencies = &config.latencies;
      input.weights = replicas->PairWeights();
      return FindConfiguration(input).topology;
    });
    config.tree_kind = SaturnTreeKind::kCustom;
  }
  std::optional<ClusterConfig> generated_config;
  if (controls && protocol == Protocol::kSaturn) {
    generated_config = config;
    generated_config->tree_kind = SaturnTreeKind::kGenerated;
    generated_config->open_loop = OpenLoopConfig{};
    generated_config->enable_oracle = false;
    generated_config->trace = obs::TraceConfig{};
  }

  std::unique_ptr<Cluster> cluster = Span(r, "runtime.cluster_build_s", [&] {
    return std::make_unique<Cluster>(std::move(config), std::move(*replicas), std::move(homes),
                                     factory);
  });
  if (shape == Shape::kFacebook) {
    cluster->StopClientsAt(warmup + measure);
  }
  if (shape == Shape::kFaults) {
    cluster->InstallDriftPlan(drift_plan);
    cluster->InstallFaultPlan(fault_plan);
    cluster->StopClientsAt(kFoStopClients);
  }
  r.setup_s = setup.Seconds();

  // --- The measured call -------------------------------------------------------
  AllocCount before = AllocsSoFar();
  Stopwatch run;
  cluster->Run(warmup, measure, drain);
  r.run_s = run.Seconds();
  AllocCount after = AllocsSoFar();
  r.allocs = after.allocs - before.allocs;
  r.alloc_bytes = after.bytes - before.bytes;

  // --- Outputs -----------------------------------------------------------------
  Metrics& metrics = cluster->metrics();
  const Network& net = cluster->network();
  const uint32_t n = cluster->num_dcs();
  uint64_t migrations = 0;
  uint64_t arrivals = 0;
  uint64_t shed = 0;
  uint64_t backlog = 0;
  LatencyHistogram queue_wait;
  for (const auto& client : cluster->clients()) {
    r.ops_completed += client->ops_completed();
    migrations += client->migrations();
  }
  for (const auto& mux : cluster->session_muxes()) {
    r.ops_completed += mux->ops_completed();
    migrations += mux->migrations();
    arrivals += mux->arrivals();
    shed += mux->shed();
    backlog += mux->backlog();
    queue_wait.Merge(*mux->queue_wait());
  }
  const uint64_t ops = r.ops_completed;
  r.executed_events = cluster->executed_events();

  const LatencyHistogram& vis = metrics.AllVisibility();
  const LatencyHistogram& op_latency = metrics.OpLatency();
  r.sim["sim_throughput_ops"] = {metrics.ThroughputOpsPerSec(), metrics.completed_ops()};
  r.sim["sim_visibility_p50_ms"] = {PercentileMs(vis, 0.50), vis.count()};
  r.sim["sim_visibility_p99_ms"] = {PercentileMs(vis, 0.99), vis.count()};
  r.sim["sim_op_latency_p50_ms"] = {PercentileMs(op_latency, 0.50), op_latency.count()};
  r.sim["sim_op_latency_p99_ms"] = {PercentileMs(op_latency, 0.99), op_latency.count()};
  r.sim["wire_bytes_per_op"] = {PerOp(static_cast<double>(net.bytes_sent()), ops), ops};

  // --- Per-layer counters --------------------------------------------------------
  auto layer = [&](const char* name, double value, uint64_t count) {
    r.layers[name] = {value, count};
  };
  auto per_op = [&](const char* name, double total) { layer(name, PerOp(total, ops), ops); };
  per_op("workload.migrations_per_op", static_cast<double>(migrations));
  if (shape == Shape::kFacebook) {
    layer("workload.attach_ms_mean", metrics.AttachLatency().MeanMs(),
          metrics.AttachLatency().count());
  }
  if (shape == Shape::kOpenLoop) {
    layer("workload.queue_wait_p99_ms", PercentileMs(queue_wait, 0.99), queue_wait.count());
  }
  if (protocol == Protocol::kSaturn) {
    uint64_t routed = 0;
    uint64_t retransmissions = 0;
    for (Serializer* s : cluster->metadata_service()->AllSerializers()) {
      routed += s->routed();
      retransmissions += s->link_retransmissions();
    }
    SimTime ts_mode = 0;
    for (DcId dc = 0; dc < n; ++dc) {
      retransmissions += cluster->saturn_dc(dc)->link_retransmissions();
      ts_mode += metrics.TimestampModeTime(dc, cluster->sim().Now());
    }
    if (shape != Shape::kOpenLoop) {
      layer("saturn.labels_routed_per_update", PerOp(static_cast<double>(routed), counts.updates),
            counts.updates);
    }
    layer("saturn.link_retransmissions", static_cast<double>(retransmissions), 1);
    layer("saturn.ts_mode_ms", static_cast<double>(ts_mode) / 1000.0, n);
  }
  if (cluster->reconfig_controller() != nullptr) {
    layer("saturn.reconfig_ms_mean", metrics.ReconfigLatency().MeanMs(),
          metrics.ReconfigLatency().count());
  }
  per_op("sim.events_per_op", static_cast<double>(r.executed_events));
  per_op("net.messages_per_op", static_cast<double>(net.messages_sent()));
  per_op("net.metadata_bytes_per_op", static_cast<double>(net.metadata_wire_bytes()));
  per_op("net.bulk_bytes_per_op", static_cast<double>(net.wire_bytes(LinkClass::kBulk)));
  per_op("net.control_bytes_per_op", static_cast<double>(net.wire_bytes(LinkClass::kControl)));
  if (const obs::AttributionProfiler* attr = cluster->attribution()) {
    for (size_t p = 0; p < obs::kNumPhases; ++p) {
      auto phase = static_cast<obs::Phase>(p);
      const LatencyHistogram& hist = *attr->phase_histogram(phase);
      r.layers[std::string("vis.") + obs::PhaseKey(phase) + "_p99_ms"] = {
          PercentileMs(hist, 0.99), hist.count()};
    }
  }
  if (shape == Shape::kFaults) {
    layer("fault.failover_ms_mean", metrics.FailoverLatency().MeanMs(),
          metrics.FailoverLatency().count());
    layer("fault.messages_dropped", static_cast<double>(net.messages_dropped()), 1);
  }
  uint64_t keys_stored = 0;
  for (DcId dc = 0; dc < n; ++dc) {
    keys_stored += cluster->dc(dc)->store().TotalKeys();
  }
  layer("kvstore.keys_stored", static_cast<double>(keys_stored), n);
  layer("alloc.per_event", PerOp(static_cast<double>(r.allocs), r.executed_events),
        r.executed_events);
  per_op("alloc.bytes_per_op", static_cast<double>(r.alloc_bytes));

  // --- Output checks --------------------------------------------------------------
  auto fail = [&](uint64_t count, const std::string& what) {
    if (count > 0) {
      r.failed += count;
      r.failures.push_back(std::to_string(count) + " " + what);
    }
  };
  CausalityOracle* oracle = cluster->oracle();
  if (oracle != nullptr) {
    r.oracle_violations = oracle->violations().size();
  }
  if (kind == RoundKind::kEventual) {
    // Negative control: only the oracle's verdict matters.
    if (r.oracle_violations == 0) {
      r.problems.push_back("eventual consistency under the fault plan passed the oracle");
    }
    return r;
  }

  if (shape == Shape::kOpenLoop) {
    r.attempted = arrivals;
    fail(shed, "arrivals shed");
    if (arrivals > ops + shed) {
      fail(arrivals - ops - shed, "arrivals neither completed nor shed");
    }
    if (backlog != 0) {
      r.problems.push_back(std::to_string(backlog) + " operations still queued after the drain");
    }
  } else {
    r.attempted = counts.issued;
    const uint64_t unanswered = counts.issued > ops ? counts.issued - ops : 0;
    if (shape == Shape::kFacebook) {
      fail(unanswered, "operations never answered");
    } else {
      r.unanswered = unanswered;  // the crash dropped them; nothing is owed
    }
  }

  FloorCheck floor = CheckVisibilityFloor(
      sites, [&](DcId origin, DcId at) -> const LatencyHistogram& {
        return metrics.Visibility(origin, at);
      });
  fail(floor.below, "visibility samples below the Table-1 floor (" + floor.first + ")");

  VersionAt version_at = [&](KeyId key, DcId dc) {
    return cluster->dc(dc)->store().PartitionFor(key).Get(key);
  };
  StoreCheck store = CheckStores(cluster->replicas(), n, version_at, keys_stored);
  fail(store.divergent, "replica slots missing their key's final version (" + store.first + ")");
  fail(store.stray, "copies stored outside the key's replicas (" + store.first + ")");
  if (store.keys_written == 0) {
    r.problems.push_back("no key was written");
  }

  if (oracle != nullptr) {
    fail(r.oracle_violations, "updates flagged by the causality oracle");
    fail(oracle->MissingReplicas().size(), "updates missing at a replica (oracle)");
  }
  if (shape == Shape::kFaults) {
    if (cluster->reconfig_controller()->reconfigs() < 1) {
      r.problems.push_back("the drift forced no tree reconfiguration");
    }
    if (cluster->fault_injector()->log().size() != fault_plan.events.size()) {
      r.problems.push_back("not every planned fault was applied");
    }
  }

  r.peak_rss_mb = PeakRssMb();

  if (controls) {
    for (const std::string& missed :
         {FloorControl(sites), StoreControl(cluster->replicas(), n, version_at, keys_stored,
                                            store.divergent)}) {
      if (!missed.empty()) {
        r.problems.push_back("negative control: " + missed);
      }
    }
    if (generated_config.has_value()) {
      Cluster generated(std::move(*generated_config), ReplicaMap(cluster->replicas()), {},
                        GeneratorFactory{});
      if (generated.tree().ToString() != cluster->tree().ToString()) {
        r.problems.push_back("the solved tree differs from the cluster's generated tree");
      }
    }
  }
  return r;
}

}  // namespace satbench
