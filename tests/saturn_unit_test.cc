// Unit-level tests for SaturnDc internals, driven by direct message
// injection: the label sink's timestamp-ordered flush, idle heartbeats, and
// the remote proxy's stream discipline (stall on missing payloads, ordered
// visibility).
#include <gtest/gtest.h>

#include <vector>

#include "src/saturn/saturn_dc.h"

namespace saturn {
namespace {

class EnvelopeSink : public Actor {
 public:
  void HandleMessage(NodeId from, const Message& msg) override {
    (void)from;
    if (const auto* env = std::get_if<LabelEnvelope>(&msg)) {
      received.push_back(*env);
    }
  }
  std::vector<LabelEnvelope> received;
};

class ClientStub : public Actor {
 public:
  void HandleMessage(NodeId from, const Message& msg) override {
    (void)from;
    if (const auto* resp = std::get_if<ClientResponse>(&msg)) {
      responses.push_back(*resp);
    }
  }
  std::vector<ClientResponse> responses;
};

DcSet BothDcs() { return DcSet::FirstN(2); }

class SaturnUnitTest : public ::testing::Test {
 protected:
  SaturnUnitTest()
      : matrix_(2),
        net_(&sim_, matrix_, FastNet()),
        metrics_(2),
        dc_(&sim_, &net_, Config(), 2, [](KeyId) { return BothDcs(); }, &metrics_, nullptr) {
    net_.Attach(&dc_, 0);
    net_.Attach(&serializer_, 0);
    net_.Attach(&client_, 0);
    net_.Attach(&peer_, 1);  // bulk-data sink standing in for dc1
    dc_.RegisterPeer(1, peer_.node_id());
    dc_.AttachToTree(0, serializer_.node_id());
    dc_.Start();
  }

  static NetworkConfig FastNet() {
    NetworkConfig config;
    config.intra_site_latency = Micros(10);
    return config;
  }

  static DatacenterConfig Config() {
    DatacenterConfig config;
    config.id = 0;
    config.num_gears = 2;
    config.sink_flush_interval = Millis(1);
    return config;
  }

  void SendUpdate(KeyId key, uint64_t request_id, const Label& client_label = kBottomLabel) {
    ClientRequest req;
    req.op = ClientOpType::kUpdate;
    req.client = 1;
    req.key = key;
    req.value_size = 2;
    req.client_label = client_label;
    req.request_id = request_id;
    net_.Send(client_.node_id(), dc_.node_id(), req);
  }

  Simulator sim_;
  LatencyMatrix matrix_;
  Network net_;
  Metrics metrics_;
  SaturnDc dc_;
  EnvelopeSink serializer_;
  EnvelopeSink peer_;
  ClientStub client_;
};

TEST_F(SaturnUnitTest, SinkFlushesLabelsInTimestampOrder) {
  // Two updates land on different gears; gear queues can complete them out of
  // timestamp order within one flush window, but the sink must emit a
  // timestamp-sorted batch (section 4: the label sink orders labels).
  for (uint64_t i = 0; i < 8; ++i) {
    SendUpdate(/*key=*/i, /*request_id=*/100 + i);
  }
  sim_.RunUntil(Millis(10));

  std::vector<LabelEnvelope> updates;
  for (const auto& env : serializer_.received) {
    if (env.label.type == LabelType::kUpdate) {
      updates.push_back(env);
    }
  }
  ASSERT_EQ(updates.size(), 8u);
  for (size_t i = 1; i < updates.size(); ++i) {
    EXPECT_LT(updates[i - 1].label, updates[i].label) << "sink emitted out of order at " << i;
  }
}

TEST_F(SaturnUnitTest, UpdateLabelsCarryInterestWithoutSelf) {
  SendUpdate(1, 100);
  sim_.RunUntil(Millis(5));
  bool saw_update = false;
  for (const auto& env : serializer_.received) {
    if (env.label.type == LabelType::kUpdate) {
      saw_update = true;
      EXPECT_FALSE(env.interest.Contains(0)) << "label addressed to its own origin";
      EXPECT_TRUE(env.interest.Contains(1));
    }
  }
  EXPECT_TRUE(saw_update);
}

TEST_F(SaturnUnitTest, IdleSinkEmitsHeartbeats) {
  sim_.RunUntil(Millis(20));
  int heartbeats = 0;
  int64_t prev_ts = -1;
  for (const auto& env : serializer_.received) {
    if (env.label.type == LabelType::kHeartbeat) {
      ++heartbeats;
      EXPECT_GT(env.label.ts, prev_ts);  // strictly increasing
      prev_ts = env.label.ts;
    }
  }
  EXPECT_GE(heartbeats, 15);  // ~1 per ms
}

TEST_F(SaturnUnitTest, StreamStallsUntilPayloadArrives) {
  // A remote update's label arrives before its payload: it must not become
  // visible until the bulk transfer completes.
  Label remote;
  remote.type = LabelType::kUpdate;
  remote.src = MakeSourceId(1, 0);
  remote.ts = 500;
  remote.target_key = 7;
  remote.uid = 900;

  LabelEnvelope env;
  env.label = remote;
  env.interest = DcSet::Single(0);
  net_.Send(serializer_.node_id(), dc_.node_id(), env);
  sim_.RunUntil(Millis(5));
  EXPECT_EQ(dc_.store().PartitionFor(7).Get(7), nullptr) << "visible before payload";

  RemotePayload payload;
  payload.label = remote;
  payload.key = 7;
  payload.value_size = 3;
  payload.created_at = 500;
  net_.Send(serializer_.node_id(), dc_.node_id(), payload);
  sim_.RunUntil(Millis(10));
  const VersionedValue* v = dc_.store().PartitionFor(7).Get(7);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->label.uid, 900u);
  EXPECT_EQ(metrics_.Visibility(1, 0).count(), 1u);
}

TEST_F(SaturnUnitTest, StreamOrderGatesLaterUpdates) {
  // Two remote labels in stream order; only the second's payload arrives.
  // The second must wait for the first (dependency readiness) even though it
  // could be applied.
  Label first{LabelType::kUpdate, MakeSourceId(1, 0), 500, 7, kInvalidDc, 901};
  Label second{LabelType::kUpdate, MakeSourceId(1, 1), 600, 8, kInvalidDc, 902};
  for (const Label& l : {first, second}) {
    LabelEnvelope env;
    env.label = l;
    env.interest = DcSet::Single(0);
    net_.Send(serializer_.node_id(), dc_.node_id(), env);
  }
  RemotePayload payload;
  payload.label = second;
  payload.key = 8;
  payload.value_size = 3;
  net_.Send(serializer_.node_id(), dc_.node_id(), payload);
  sim_.RunUntil(Millis(5));
  EXPECT_EQ(dc_.store().PartitionFor(8).Get(8), nullptr)
      << "second update visible while the stream head stalls";

  RemotePayload first_payload;
  first_payload.label = first;
  first_payload.key = 7;
  first_payload.value_size = 3;
  net_.Send(serializer_.node_id(), dc_.node_id(), first_payload);
  sim_.RunUntil(Millis(10));
  EXPECT_NE(dc_.store().PartitionFor(7).Get(7), nullptr);
  EXPECT_NE(dc_.store().PartitionFor(8).Get(8), nullptr);
}

TEST_F(SaturnUnitTest, MigrationLabelUnblocksAttach) {
  // A client migrating here attaches with a migration label; the attach
  // completes only after the label arrives through the stream.
  Label migration{LabelType::kMigration, MakeSourceId(1, 0), 700, 0, /*target_dc=*/0, 903};

  ClientRequest attach;
  attach.op = ClientOpType::kAttach;
  attach.client = 2;
  attach.client_label = migration;
  attach.request_id = 77;
  net_.Send(client_.node_id(), dc_.node_id(), attach);
  sim_.RunUntil(Millis(5));
  EXPECT_TRUE(client_.responses.empty()) << "attach completed before the migration label";

  LabelEnvelope env;
  env.label = migration;
  env.interest = DcSet::Single(0);
  net_.Send(serializer_.node_id(), dc_.node_id(), env);
  sim_.RunUntil(Millis(10));
  ASSERT_EQ(client_.responses.size(), 1u);
  EXPECT_EQ(client_.responses[0].op, ClientOpType::kAttach);
  EXPECT_EQ(client_.responses[0].request_id, 77u);
}

TEST_F(SaturnUnitTest, OnePumpReleasesParkedWaitersInArrivalOrder) {
  // Three attaches carrying dc1 update labels park until dc1's stream passes
  // their timestamps; a fourth waits for a later label. One stream label
  // releases the first three, which complete in arrival order (not timestamp
  // order), and the fourth stays parked until its own bound arrives.
  auto attach = [&](int64_t ts, uint64_t request_id) {
    ClientRequest req;
    req.op = ClientOpType::kAttach;
    req.client = 2;
    req.client_label = Label{LabelType::kUpdate, MakeSourceId(1, 0), ts, 0, kInvalidDc, 0};
    req.request_id = request_id;
    net_.Send(client_.node_id(), dc_.node_id(), req);
  };
  auto stream_heartbeat = [&](int64_t ts) {
    LabelEnvelope env;
    env.label = Label{LabelType::kHeartbeat, MakeSourceId(1, 0), ts, 0, kInvalidDc, 0};
    env.interest = DcSet::Single(0);
    net_.Send(serializer_.node_id(), dc_.node_id(), env);
  };
  attach(300, 11);
  attach(100, 12);
  attach(900, 13);
  attach(200, 14);
  sim_.RunUntil(Millis(5));
  ASSERT_TRUE(client_.responses.empty()) << "attach completed before dc1's stream passed it";

  stream_heartbeat(400);
  sim_.RunUntil(Millis(10));
  ASSERT_EQ(client_.responses.size(), 3u);
  EXPECT_EQ(client_.responses[0].request_id, 11u);
  EXPECT_EQ(client_.responses[1].request_id, 12u);
  EXPECT_EQ(client_.responses[2].request_id, 14u);

  stream_heartbeat(899);
  sim_.RunUntil(Millis(15));
  EXPECT_EQ(client_.responses.size(), 3u) << "released below its timestamp";
  stream_heartbeat(900);
  sim_.RunUntil(Millis(20));
  ASSERT_EQ(client_.responses.size(), 4u);
  EXPECT_EQ(client_.responses[3].request_id, 13u);
}

TEST_F(SaturnUnitTest, MigrationLabelReleasesWaiterAboveTheStreamBound) {
  // The migration label's delivery alone releases its attach: no bulk
  // heartbeat from dc1 ever arrives, so no timestamp bound admits it. An
  // update-label attach parked beside it, above dc1's stream progress (the
  // migration label's 700), keeps waiting.
  Label migration{LabelType::kMigration, MakeSourceId(1, 0), 700, 0, /*target_dc=*/0, 903};
  ClientRequest update_attach;
  update_attach.op = ClientOpType::kAttach;
  update_attach.client = 3;
  update_attach.client_label = Label{LabelType::kUpdate, MakeSourceId(1, 1), 800, 0, kInvalidDc, 0};
  update_attach.request_id = 78;
  net_.Send(client_.node_id(), dc_.node_id(), update_attach);
  ClientRequest attach;
  attach.op = ClientOpType::kAttach;
  attach.client = 2;
  attach.client_label = migration;
  attach.request_id = 77;
  net_.Send(client_.node_id(), dc_.node_id(), attach);
  sim_.RunUntil(Millis(5));
  ASSERT_TRUE(client_.responses.empty());

  LabelEnvelope env;
  env.label = migration;
  env.interest = DcSet::Single(0);
  net_.Send(serializer_.node_id(), dc_.node_id(), env);
  sim_.RunUntil(Millis(10));
  ASSERT_EQ(client_.responses.size(), 1u);
  EXPECT_EQ(client_.responses[0].request_id, 77u);
}

}  // namespace
}  // namespace saturn
