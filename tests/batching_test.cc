// Metadata-link batching plane (reliable_link.h + label_codec.h).
//
// The batch layer must be a pure transport optimization: the receiver-side
// delivery stream — order, content, exactly-once — is identical whether a
// window is configured or not, and a deadline of 0 keeps the wire
// byte-for-byte identical to the pre-batching plane. What batching *is*
// allowed to change is the wire: fewer frames, fewer bytes, acks piggybacked
// on reverse traffic, and contiguous retransmission runs re-coalesced into
// single frames.
#include <gtest/gtest.h>

#include <vector>

#include "src/saturn/reliable_link.h"

namespace saturn {
namespace {

// A node whose only job is to own one end of a reliable link set: received
// frames are fed back through the links (dedup / reorder / ack), deliveries
// are recorded with their simulated time.
class LinkEndpoint : public Actor {
 public:
  LinkEndpoint(Simulator* sim, Network* net)
      : links_(sim, net, this, [this, sim](NodeId, const LabelEnvelope& env) {
          delivered.push_back(env);
          delivered_at.push_back(sim->Now());
        }) {}

  void HandleMessage(NodeId from, const Message& msg) override {
    if (const auto* env = std::get_if<LabelEnvelope>(&msg)) {
      links_.OnEnvelope(from, *env);
    } else if (const auto* batch = std::get_if<LabelBatch>(&msg)) {
      links_.OnBatch(from, *batch);
    } else if (const auto* ack = std::get_if<LinkAck>(&msg)) {
      links_.OnAck(from, *ack);
    }
  }

  ReliableLinks& links() { return links_; }
  std::vector<LabelEnvelope> delivered;
  std::vector<SimTime> delivered_at;

 private:
  ReliableLinks links_;
};

LabelEnvelope Env(int64_t ts, uint64_t uid) {
  LabelEnvelope env;
  env.label.ts = ts;
  env.label.uid = uid;
  env.interest = DcSet::Single(1);
  return env;
}

LatencyMatrix MakeMatrix() {
  LatencyMatrix m(2);
  m.Set(0, 1, Millis(10));
  return m;
}

// One complete scenario: `count` envelopes sent in `bursts` spaced bursts,
// run to quiescence. Returns the delivered stream plus wire statistics.
struct ScenarioResult {
  std::vector<LabelEnvelope> delivered;
  uint64_t messages_sent = 0;
  uint64_t label_wire_bytes = 0;
  uint64_t ack_wire_bytes = 0;
  uint64_t retransmit_coalesced = 0;
};

ScenarioResult RunScenario(const LinkBatchConfig& batch, int count, int bursts) {
  Simulator sim;
  Network net(&sim, MakeMatrix());
  LinkEndpoint sender(&sim, &net);
  LinkEndpoint receiver(&sim, &net);
  net.Attach(&sender, 0);
  net.Attach(&receiver, 1);
  sender.links().ConfigureBatching(batch);

  int per_burst = count / bursts;
  for (int b = 0; b < bursts; ++b) {
    sim.At(Millis(b * 10), [&, b]() {
      for (int i = 0; i < per_burst; ++i) {
        int n = b * per_burst + i;
        sender.links().Send(receiver.node_id(), Env(n, 1000 + n));
      }
    });
  }
  sim.RunAll();

  ScenarioResult result;
  result.delivered = receiver.delivered;
  result.messages_sent = net.messages_sent();
  result.label_wire_bytes = net.wire_bytes(LinkClass::kMetadataLabels);
  result.ack_wire_bytes = net.wire_bytes(LinkClass::kMetadataAcks);
  result.retransmit_coalesced = sender.links().retransmit_coalesced();
  return result;
}

void ExpectInOrder(const std::vector<LabelEnvelope>& delivered, int count) {
  ASSERT_EQ(delivered.size(), static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    EXPECT_EQ(delivered[i].label.ts, i);
    EXPECT_EQ(delivered[i].label.uid, 1000u + static_cast<uint64_t>(i));
  }
}

TEST(Batching, DeliveryStreamIdenticalBatchedOrNot) {
  ScenarioResult plain = RunScenario({32, 1024, 0}, 60, 3);
  ScenarioResult batched = RunScenario({32, 1024, Millis(1)}, 60, 3);
  ExpectInOrder(plain.delivered, 60);
  ExpectInOrder(batched.delivered, 60);
}

TEST(Batching, CoalescingShrinksTheWire) {
  ScenarioResult plain = RunScenario({32, 1024, 0}, 60, 3);
  ScenarioResult batched = RunScenario({32, 1024, Millis(1)}, 60, 3);
  // 60 envelopes in 3 bursts: unbatched pays 60 label frames; batched pays one
  // frame per flush (20 labels fit one 32-label batch comfortably).
  EXPECT_LT(batched.messages_sent, plain.messages_sent / 4);
  EXPECT_LT(batched.label_wire_bytes, plain.label_wire_bytes / 3);
}

TEST(Batching, DeadlineZeroKeepsTheOldWireExactly) {
  ScenarioResult plain = RunScenario({32, 1024, 0}, 10, 1);
  // Per-label frames at the pinned LabelEnvelope wire size; no batch frames.
  EXPECT_EQ(plain.label_wire_bytes, 10u * 48u);
  ExpectInOrder(plain.delivered, 10);
}

TEST(Batching, SizeBoundFlushesBeforeDeadline) {
  // 40 labels in one burst against a 4-label bound and a deadline far beyond
  // the run: only the size trigger can have flushed them.
  ScenarioResult result = RunScenario({4, 1024, Seconds(10)}, 40, 1);
  ExpectInOrder(result.delivered, 40);
}

TEST(Batching, DeadlineFlushesPartialBatch) {
  // 3 labels never reach the 32-label bound; the deadline must flush them.
  Simulator sim;
  Network net(&sim, MakeMatrix());
  LinkEndpoint sender(&sim, &net);
  LinkEndpoint receiver(&sim, &net);
  net.Attach(&sender, 0);
  net.Attach(&receiver, 1);
  sender.links().ConfigureBatching({32, 1024, Millis(2)});
  for (int i = 0; i < 3; ++i) {
    sender.links().Send(receiver.node_id(), Env(i, 1000 + i));
  }
  sim.RunUntil(Millis(1));
  EXPECT_TRUE(receiver.delivered.empty());  // still pending in the open batch
  sim.RunAll();
  ExpectInOrder(receiver.delivered, 3);
}

TEST(Batching, ReverseTrafficPiggybacksAcks) {
  // Sustained bidirectional batched traffic: every data frame can carry the
  // cumulative ack for the reverse direction, so standalone LinkAcks appear
  // only in the quiescent tail after the last frames cross.
  Simulator sim;
  Network net(&sim, MakeMatrix());
  LinkEndpoint a(&sim, &net);
  LinkEndpoint b(&sim, &net);
  net.Attach(&a, 0);
  net.Attach(&b, 1);
  a.links().ConfigureBatching({32, 1024, Millis(1)});
  b.links().ConfigureBatching({32, 1024, Millis(1)});

  for (int burst = 0; burst < 20; ++burst) {
    sim.At(Millis(burst * 2), [&, burst]() {
      for (int i = 0; i < 5; ++i) {
        int n = burst * 5 + i;
        a.links().Send(b.node_id(), Env(n, 1000 + n));
        b.links().Send(a.node_id(), Env(n, 5000 + n));
      }
    });
  }
  sim.RunAll();

  ASSERT_EQ(a.delivered.size(), 100u);
  ASSERT_EQ(b.delivered.size(), 100u);
  // ~40 data frames crossed; piggybacking must leave at most the tail's worth
  // of standalone acks (LinkAck wire size is pinned at 16).
  uint64_t standalone_acks = net.wire_bytes(LinkClass::kMetadataAcks) / 16;
  EXPECT_LE(standalone_acks, 4u);
}

TEST(Batching, LossyCutRetransmitsAsCoalescedFrames) {
  Simulator sim;
  Network net(&sim, MakeMatrix());
  LinkEndpoint sender(&sim, &net);
  LinkEndpoint receiver(&sim, &net);
  net.Attach(&sender, 0);
  net.Attach(&receiver, 1);
  sender.links().ConfigureBatching({32, 1024, Millis(1)});

  net.CutLink(0, 1, /*drop_messages=*/true);
  for (int i = 0; i < 10; ++i) {
    sender.links().Send(receiver.node_id(), Env(i, 1000 + i));
  }
  sim.At(Millis(200), [&]() { net.HealLink(0, 1); });
  sim.RunAll();

  // Every label arrives exactly once, in order, and the retransmission that
  // got them through coalesced the contiguous run into one frame.
  ExpectInOrder(receiver.delivered, 10);
  EXPECT_GE(sender.links().retransmissions(), 10u);
  EXPECT_GE(sender.links().retransmit_coalesced(), 1u);
}

TEST(Batching, RetransmitCoalescedStaysZeroWithoutBatching) {
  Simulator sim;
  Network net(&sim, MakeMatrix());
  LinkEndpoint sender(&sim, &net);
  LinkEndpoint receiver(&sim, &net);
  net.Attach(&sender, 0);
  net.Attach(&receiver, 1);

  net.CutLink(0, 1, /*drop_messages=*/true);
  for (int i = 0; i < 10; ++i) {
    sender.links().Send(receiver.node_id(), Env(i, 1000 + i));
  }
  sim.At(Millis(200), [&]() { net.HealLink(0, 1); });
  sim.RunAll();

  ExpectInOrder(receiver.delivered, 10);
  EXPECT_GE(sender.links().retransmissions(), 10u);
  EXPECT_EQ(sender.links().retransmit_coalesced(), 0u);
}

// Retransmission timing. The tick skips its window walk while the oldest
// unacked transmission is younger than the least possible retry timeout;
// these scenarios pin the instants at which the full walk, run on every
// tick, resends (the delivery times below were measured with that walk), so
// a bound that is ever too high shows up as a late delivery.
struct TimingScenario {
  LinkBatchConfig batch;
  SimTime one_way = Millis(10);
  std::vector<SimTime> send_at;  // one envelope per entry, in order
  SimTime cut_at = 0;            // lossy cut of the link over [cut_at, heal_at)
  SimTime heal_at = 0;
  SimTime drift_at = -1;         // when >= 0, the one-way latency becomes...
  SimTime drift_to = 0;          // ...this
};

struct TimingResult {
  std::vector<SimTime> delivered_at;
  uint64_t retransmissions = 0;
};

TimingResult RunTiming(const TimingScenario& sc) {
  Simulator sim;
  LatencyMatrix matrix(2);
  matrix.Set(0, 1, sc.one_way);
  Network net(&sim, matrix);
  LinkEndpoint sender(&sim, &net);
  LinkEndpoint receiver(&sim, &net);
  net.Attach(&sender, 0);
  net.Attach(&receiver, 1);
  sender.links().ConfigureBatching(sc.batch);
  sim.At(sc.cut_at, [&]() { net.CutLink(0, 1, /*drop_messages=*/true); });
  sim.At(sc.heal_at, [&]() { net.HealLink(0, 1); });
  if (sc.drift_at >= 0) {
    sim.At(sc.drift_at, [&]() { net.SetBaseLatency(0, 1, sc.drift_to); });
  }
  for (size_t i = 0; i < sc.send_at.size(); ++i) {
    sim.At(sc.send_at[i], [&, i]() {
      sender.links().Send(receiver.node_id(),
                          Env(static_cast<int64_t>(i), 1000 + static_cast<uint64_t>(i)));
    });
  }
  sim.RunAll();
  ExpectInOrder(receiver.delivered, static_cast<int>(sc.send_at.size()));
  return {receiver.delivered_at, sender.links().retransmissions()};
}

constexpr LinkBatchConfig kPerLabel{32, 1024, 0};
constexpr LinkBatchConfig kBatched{32, 1024, Millis(1)};

TEST(RetransmitTiming, DroppedFirstTransmissionPerLabel) {
  TimingScenario sc;
  sc.batch = kPerLabel;
  sc.send_at = {Millis(1)};
  sc.cut_at = 0;
  sc.heal_at = Millis(20);
  TimingResult r = RunTiming(sc);
  EXPECT_EQ(r.delivered_at, (std::vector<SimTime>{81000}));
  EXPECT_EQ(r.retransmissions, 1u);
}

TEST(RetransmitTiming, DroppedFirstTransmissionBatched) {
  TimingScenario sc;
  sc.batch = kBatched;
  sc.send_at = {Millis(1), Millis(1), Millis(1)};
  sc.cut_at = 0;
  sc.heal_at = Millis(20);
  TimingResult r = RunTiming(sc);
  EXPECT_EQ(r.delivered_at, (std::vector<SimTime>{86000, 86000, 86000}));
  EXPECT_EQ(r.retransmissions, 3u);
}

TEST(RetransmitTiming, EntryBehindAnAckedPrefixPerLabel) {
  // The first envelope gets through and is acked while the second, dropped,
  // stays in the window: the window's bound then still describes the retired
  // first entry, and the second must be resent at its own due tick.
  TimingScenario sc;
  sc.batch = kPerLabel;
  sc.send_at = {0, Millis(12)};
  sc.cut_at = Micros(11500);  // after the first arrives, around the second
  sc.heal_at = Micros(12500);
  TimingResult r = RunTiming(sc);
  EXPECT_EQ(r.delivered_at, (std::vector<SimTime>{10000, 95000}));
  EXPECT_EQ(r.retransmissions, 1u);
}

TEST(RetransmitTiming, EntryBehindAnAckedPrefixBatched) {
  TimingScenario sc;
  sc.batch = kBatched;
  sc.send_at = {0, Millis(12)};
  sc.cut_at = Micros(12500);  // around the second batch's 13 ms flush
  sc.heal_at = Micros(13500);
  TimingResult r = RunTiming(sc);
  EXPECT_EQ(r.delivered_at, (std::vector<SimTime>{11000, 100000}));
  EXPECT_EQ(r.retransmissions, 1u);
}

TEST(RetransmitTiming, LaterSendDoesNotHideAnOlderEntry) {
  // The first envelope is dropped; the second, sent after the heal, waits in
  // the receiver's reorder buffer. The second send must not lift the
  // window's bound past the first entry's send time.
  TimingScenario sc;
  sc.batch = kPerLabel;
  sc.send_at = {Millis(1), Millis(30)};
  sc.cut_at = 0;
  sc.heal_at = Millis(20);
  TimingResult r = RunTiming(sc);
  EXPECT_EQ(r.delivered_at, (std::vector<SimTime>{81000, 81000}));
  EXPECT_EQ(r.retransmissions, 1u);
}

TEST(RetransmitTiming, DriftThatShortensTheRtoPerLabel) {
  // Sent into a 100 ms link (RTO 425 ms); at 50 ms the link drops to 10 ms
  // (RTO 65 ms). The resend follows the new RTO, not the one in force when
  // the envelope was sent.
  TimingScenario sc;
  sc.batch = kPerLabel;
  sc.one_way = Millis(100);
  sc.send_at = {Millis(1)};
  sc.cut_at = 0;
  sc.heal_at = Millis(20);
  sc.drift_at = Millis(50);
  sc.drift_to = Millis(10);
  TimingResult r = RunTiming(sc);
  EXPECT_EQ(r.delivered_at, (std::vector<SimTime>{81000}));
  EXPECT_EQ(r.retransmissions, 1u);
}

TEST(RetransmitTiming, DriftThatShortensTheRtoBatched) {
  TimingScenario sc;
  sc.batch = kBatched;
  sc.one_way = Millis(100);
  sc.send_at = {Millis(1), Millis(1)};
  sc.cut_at = 0;
  sc.heal_at = Millis(20);
  sc.drift_at = Millis(50);
  sc.drift_to = Millis(10);
  TimingResult r = RunTiming(sc);
  EXPECT_EQ(r.delivered_at, (std::vector<SimTime>{86000, 86000}));
  EXPECT_EQ(r.retransmissions, 2u);
}

TEST(Batching, OversizeBatchSpillsButStaysCorrect) {
  // A byte bound far above the inline BatchBytes capacity forces the encoded
  // frame to spill to the heap; content must survive the spill.
  ScenarioResult result = RunScenario({1000, 100000, Seconds(10)}, 300, 1);
  ExpectInOrder(result.delivered, 300);
}

}  // namespace
}  // namespace saturn
