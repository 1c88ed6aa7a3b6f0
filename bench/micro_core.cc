// Microbenchmarks for the core data structures (google-benchmark).
//
// Not a paper figure: these quantify the per-operation costs of the library's
// building blocks — label comparison, versioned-store access, event-queue
// scheduling, histogram recording, serializer routing, causality-oracle
// checks, reliable-channel maintenance ticks — so regressions in the substrate are visible independently of the
// protocol-level experiments.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "src/baselines/eventual_dc.h"
#include "src/common/dc_set.h"
#include "src/core/label.h"
#include "src/core/oracle.h"
#include "src/kvstore/partitioned_store.h"
#include "src/saturn/reliable_link.h"
#include "src/sim/event_queue.h"
#include "src/sim/network.h"
#include "src/sim/random.h"
#include "src/stats/histogram.h"

namespace saturn {
namespace {

void BM_LabelCompare(benchmark::State& state) {
  Label a{LabelType::kUpdate, MakeSourceId(1, 2), 123456, 7, kInvalidDc, 1};
  Label b{LabelType::kUpdate, MakeSourceId(1, 3), 123456, 9, kInvalidDc, 2};
  for (auto _ : state) {
    benchmark::DoNotOptimize(a < b);
    benchmark::DoNotOptimize(b < a);
  }
}
BENCHMARK(BM_LabelCompare);

void BM_VersionedStorePut(benchmark::State& state) {
  VersionedStore store;
  int64_t ts = 0;
  for (auto _ : state) {
    Label label;
    label.ts = ++ts;
    store.Put(static_cast<KeyId>(ts % 10000), VersionedValue{8, label});
  }
}
BENCHMARK(BM_VersionedStorePut);

void BM_VersionedStoreGet(benchmark::State& state) {
  VersionedStore store;
  for (KeyId key = 0; key < 10000; ++key) {
    store.Put(key, VersionedValue{8, Label{}});
  }
  KeyId key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Get(key));
    key = (key + 1) % 10000;
  }
}
BENCHMARK(BM_VersionedStoreGet);

void BM_PartitionHash(benchmark::State& state) {
  PartitionedStore store(8);
  KeyId key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.PartitionOf(key++));
  }
}
BENCHMARK(BM_PartitionHash);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.At(i, []() {});
    }
    sim.RunAll();
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_HistogramRecord(benchmark::State& state) {
  LatencyHistogram hist;
  Rng rng(1);
  for (auto _ : state) {
    hist.Record(static_cast<int64_t>(rng.NextBounded(1000000)));
  }
}
BENCHMARK(BM_HistogramRecord);

void BM_HistogramPercentile(benchmark::State& state) {
  LatencyHistogram hist;
  Rng rng(1);
  for (int i = 0; i < 100000; ++i) {
    hist.Record(static_cast<int64_t>(rng.NextBounded(1000000)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(hist.PercentileUs(0.99));
  }
}
BENCHMARK(BM_HistogramPercentile);

void BM_DcSetIterate(benchmark::State& state) {
  DcSet set;
  for (DcId dc = 0; dc < 64; dc += 3) {
    set.Add(dc);
  }
  for (auto _ : state) {
    uint32_t sum = 0;
    for (DcId dc : set) {
      sum += dc;
    }
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_DcSetIterate);

void BM_RngNext(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Next());
  }
}
BENCHMARK(BM_RngNext);

void BM_ZipfSample(benchmark::State& state) {
  ZipfSampler zipf(100000, 0.99);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

// Causality oracle at the faults workload's shape: 5 datacenters, 80 clients,
// keys on 2 of them.
constexpr uint32_t kOracleDcs = 5;
constexpr DcSet kOracleReplicas{0b00011};

// `count` updates issued round-robin by clients 1..clients-1 with no reads,
// so each update's deps hold only its writer's own seq.
std::vector<uint64_t> IssueRoundRobin(CausalityOracle& oracle, uint32_t clients, size_t count) {
  std::vector<uint64_t> uids;
  for (size_t i = 0; i < count; ++i) {
    uids.push_back(i + 1);
    oracle.OnClientUpdate(1 + i % (clients - 1), uids.back(), kOracleReplicas);
  }
  return uids;
}

// A read of an update already in the reader's past: the skipped merge.
void BM_OracleReadKnown(benchmark::State& state) {
  CausalityOracle oracle(kOracleDcs, 80);
  std::vector<uint64_t> uids = IssueRoundRobin(oracle, 80, 79);
  for (uint64_t uid : uids) {
    oracle.OnClientRead(0, uid);
  }
  size_t i = 0;
  for (auto _ : state) {
    oracle.OnClientRead(0, uids[i]);
    benchmark::ClobberMemory();
    i = i + 1 == uids.size() ? 0 : i + 1;
  }
}
BENCHMARK(BM_OracleReadKnown);

// A read of an update not yet in the reader's past: a full 80-entry merge.
void BM_OracleReadNew(benchmark::State& state) {
  constexpr size_t kUpdates = 79 * 256;
  std::unique_ptr<CausalityOracle> oracle;
  std::vector<uint64_t> uids;
  size_t i = kUpdates;
  for (auto _ : state) {
    if (i == kUpdates) {
      state.PauseTiming();
      oracle = std::make_unique<CausalityOracle>(kOracleDcs, 80);
      uids = IssueRoundRobin(*oracle, 80, kUpdates);
      i = 0;
      state.ResumeTiming();
    }
    oracle->OnClientRead(0, uids[i++]);  // writer's next seq: always new
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_OracleReadNew);

// Clean applies in issue order at every datacenter of a history where each
// update read its predecessor, so every deps row is dense.
void BM_OracleApply(benchmark::State& state) {
  const auto clients = static_cast<uint32_t>(state.range(0));
  const size_t updates = std::max<size_t>(256, (size_t{1} << 21) / clients);
  std::unique_ptr<CausalityOracle> oracle;
  size_t applied = updates * kOracleDcs;
  for (auto _ : state) {
    if (applied == updates * kOracleDcs) {
      state.PauseTiming();
      oracle = std::make_unique<CausalityOracle>(kOracleDcs, clients);
      for (size_t u = 0; u < updates; ++u) {
        ClientId writer = u % clients;
        if (u > 0) {
          oracle->OnClientRead(writer, u);
        }
        oracle->OnClientUpdate(writer, u + 1, DcSet::FirstN(kOracleDcs));
      }
      applied = 0;
      state.ResumeTiming();
    }
    DcId dc = static_cast<DcId>(applied / updates);
    benchmark::DoNotOptimize(oracle->OnApply(dc, applied % updates + 1));
    ++applied;
  }
}
BENCHMARK(BM_OracleApply)->Arg(80)->Arg(1000);

// Reliable-channel maintenance ticks over a healthy window: `range(0)`
// messages sent to a peer that never acks, across a link so slow (10^6 s one
// way) that its base RTO never expires. Each iteration advances simulated
// time by one 5 ms tick interval, so it times one tick — the timer event
// included — finding nothing to retransmit. The metadata links cap their
// retry timeout at 2 s, so the fixture is rebuilt (timing paused) every
// kTicksPerFixture ticks, before its window could come due.
constexpr SimTime kTickInterval = Millis(5);
constexpr int kTicksPerFixture = 256;

LatencyMatrix SlowPair() {
  LatencyMatrix m(2);
  m.Set(0, 1, Seconds(1000000));
  return m;
}

class SilentPeer : public Actor {
 public:
  void HandleMessage(NodeId, const Message&) override {}
};

// SendBulk is protected; this datacenter fills its window towards dc 1.
class BulkWindowDc : public EventualDc {
 public:
  using EventualDc::EventualDc;
  void Fill(int64_t count) {
    for (int64_t i = 0; i < count; ++i) {
      BulkHeartbeat hb;
      hb.origin = id();
      hb.ts = i;
      SendBulk(1, hb);
    }
  }
};

struct BulkTickFixture {
  explicit BulkTickFixture(int64_t window)
      : net(&sim, SlowPair()),
        dc(&sim, &net, DatacenterConfig{}, 2, [](KeyId) { return DcSet::FirstN(2); }, nullptr,
           nullptr) {
    net.Attach(&dc, 0);
    net.Attach(&peer, 1);
    dc.RegisterPeer(1, peer.node_id());
    dc.Fill(window);
  }
  uint64_t retransmissions() const { return dc.bulk_retransmissions(); }

  Simulator sim;
  Network net;
  BulkWindowDc dc;
  SilentPeer peer;
};

class LinkOwner : public Actor {
 public:
  LinkOwner(Simulator* sim, Network* net)
      : links_(sim, net, this, [](NodeId, const LabelEnvelope&) {}) {}
  void HandleMessage(NodeId, const Message&) override {}
  ReliableLinks& links() { return links_; }
  const ReliableLinks& links() const { return links_; }

 private:
  ReliableLinks links_;
};

struct LinkTickFixture {
  explicit LinkTickFixture(int64_t window) : net(&sim, SlowPair()), owner(&sim, &net) {
    net.Attach(&owner, 0);
    net.Attach(&peer, 1);
    for (int64_t i = 0; i < window; ++i) {
      LabelEnvelope env;
      env.label.ts = i;
      env.label.uid = static_cast<uint64_t>(i + 1);
      env.interest = DcSet::Single(1);
      owner.links().Send(peer.node_id(), env);
    }
  }
  uint64_t retransmissions() const { return owner.links().retransmissions(); }

  Simulator sim;
  Network net;
  LinkOwner owner;
  SilentPeer peer;
};

template <typename Fixture>
void RunHealthyTicks(benchmark::State& state) {
  std::unique_ptr<Fixture> fixture;
  int ticks = kTicksPerFixture;
  for (auto _ : state) {
    if (ticks == kTicksPerFixture) {
      state.PauseTiming();
      if (fixture != nullptr && fixture->retransmissions() != 0) {
        state.SkipWithError("window was not healthy: a message was retransmitted");
        break;
      }
      fixture = std::make_unique<Fixture>(state.range(0));
      ticks = 0;
      state.ResumeTiming();
    }
    fixture->sim.RunUntil(fixture->sim.Now() + kTickInterval);
    ++ticks;
  }
}

void BM_BulkChannelTick(benchmark::State& state) { RunHealthyTicks<BulkTickFixture>(state); }
BENCHMARK(BM_BulkChannelTick)->Arg(64)->Arg(1024);

void BM_ReliableLinksTick(benchmark::State& state) { RunHealthyTicks<LinkTickFixture>(state); }
BENCHMARK(BM_ReliableLinksTick)->Arg(64)->Arg(1024);

}  // namespace
}  // namespace saturn

BENCHMARK_MAIN();
