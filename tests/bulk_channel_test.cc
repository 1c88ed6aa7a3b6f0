// Retransmission timing on the reliable DC<->DC bulk channel
// (DatacenterBase::SendBulk). The channel tick skips its window walk while
// the oldest unacked transmission is younger than the RTO; these scenarios
// pin the instants at which the full walk, run on every tick, resends (the
// delivery times below were measured with that walk), so a bound that is
// ever too high shows up as a late delivery.
#include <gtest/gtest.h>

#include <vector>

#include "src/baselines/eventual_dc.h"

namespace saturn {
namespace {

// Sends bulk heartbeats on demand (SendBulk is protected) and records when
// each heartbeat is delivered by the channel, in delivery order.
class BulkEndpoint : public EventualDc {
 public:
  using EventualDc::EventualDc;

  void SendHeartbeat(DcId dest, int64_t ts) {
    BulkHeartbeat hb;
    hb.origin = id();
    hb.ts = ts;
    SendBulk(dest, hb);
  }

  std::vector<int64_t> delivered_ts;
  std::vector<SimTime> delivered_at;

 protected:
  void OnOtherMessage(NodeId, const Message& msg) override {
    if (const auto* hb = std::get_if<BulkHeartbeat>(&msg)) {
      delivered_ts.push_back(hb->ts);
      delivered_at.push_back(sim_->Now());
    }
  }
};

struct Scenario {
  SimTime one_way = Millis(10);
  std::vector<SimTime> send_at;  // one heartbeat per entry, ts = its index
  SimTime cut_at = 0;            // lossy cut of the link over [cut_at, heal_at)
  SimTime heal_at = 0;
  SimTime drift_at = -1;  // when >= 0, the one-way latency becomes...
  SimTime drift_to = 0;   // ...this
};

struct Result {
  std::vector<SimTime> delivered_at;
  uint64_t retransmissions = 0;
};

Result RunScenario(const Scenario& sc) {
  Simulator sim;
  LatencyMatrix matrix(2);
  matrix.Set(0, 1, sc.one_way);
  Network net(&sim, matrix);
  auto both = [](KeyId) { return DcSet::FirstN(2); };
  DatacenterConfig config0;
  config0.id = 0;
  DatacenterConfig config1;
  config1.id = 1;
  BulkEndpoint sender(&sim, &net, config0, 2, both, nullptr, nullptr);
  BulkEndpoint receiver(&sim, &net, config1, 2, both, nullptr, nullptr);
  net.Attach(&sender, 0);
  net.Attach(&receiver, 1);
  sender.RegisterPeer(1, receiver.node_id());
  receiver.RegisterPeer(0, sender.node_id());

  sim.At(sc.cut_at, [&]() { net.CutLink(0, 1, /*drop_messages=*/true); });
  sim.At(sc.heal_at, [&]() { net.HealLink(0, 1); });
  if (sc.drift_at >= 0) {
    sim.At(sc.drift_at, [&]() { net.SetBaseLatency(0, 1, sc.drift_to); });
  }
  for (size_t i = 0; i < sc.send_at.size(); ++i) {
    sim.At(sc.send_at[i], [&, i]() { sender.SendHeartbeat(1, static_cast<int64_t>(i)); });
  }
  sim.RunAll();

  // Exactly once, in sending order.
  std::vector<int64_t> expected_ts;
  for (size_t i = 0; i < sc.send_at.size(); ++i) {
    expected_ts.push_back(static_cast<int64_t>(i));
  }
  EXPECT_EQ(receiver.delivered_ts, expected_ts);
  return {receiver.delivered_at, sender.bulk_retransmissions()};
}

TEST(BulkChannelTiming, DroppedFirstTransmissionResentOnTime) {
  Scenario sc;
  sc.send_at = {Millis(1)};
  sc.cut_at = 0;
  sc.heal_at = Millis(20);
  Result r = RunScenario(sc);
  EXPECT_EQ(r.delivered_at, (std::vector<SimTime>{76000}));
  EXPECT_EQ(r.retransmissions, 1u);
}

TEST(BulkChannelTiming, EntryBehindAnAckedPrefixResentOnTime) {
  // The first heartbeat gets through and is acked while the second, dropped,
  // stays in the window: the window's bound then still describes the retired
  // first entry, and the second must be resent at its own due tick.
  Scenario sc;
  sc.send_at = {0, Millis(12)};
  sc.cut_at = Micros(11500);  // after the first arrives, around the second
  sc.heal_at = Micros(12500);
  Result r = RunScenario(sc);
  EXPECT_EQ(r.delivered_at, (std::vector<SimTime>{10000, 90000}));
  EXPECT_EQ(r.retransmissions, 1u);
}

TEST(BulkChannelTiming, LaterSendDoesNotHideAnOlderEntry) {
  // The first heartbeat is dropped; the second, sent after the heal, waits
  // in the receiver's reorder buffer. The second send must not lift the
  // window's bound past the first entry's send time.
  Scenario sc;
  sc.send_at = {Millis(1), Millis(30)};
  sc.cut_at = 0;
  sc.heal_at = Millis(20);
  Result r = RunScenario(sc);
  EXPECT_EQ(r.delivered_at, (std::vector<SimTime>{76000, 76000}));
  EXPECT_EQ(r.retransmissions, 1u);
}

TEST(BulkChannelTiming, DriftThatShortensTheRtoIsHonoured) {
  // Sent into a 100 ms link (RTO 425 ms); at 50 ms the link drops to 10 ms
  // (RTO 65 ms). The resend follows the new RTO, not the one in force when
  // the heartbeat was sent.
  Scenario sc;
  sc.one_way = Millis(100);
  sc.send_at = {Millis(1)};
  sc.cut_at = 0;
  sc.heal_at = Millis(20);
  sc.drift_at = Millis(50);
  sc.drift_to = Millis(10);
  Result r = RunScenario(sc);
  EXPECT_EQ(r.delivered_at, (std::vector<SimTime>{76000}));
  EXPECT_EQ(r.retransmissions, 1u);
}

}  // namespace
}  // namespace saturn
