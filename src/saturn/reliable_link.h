// Reliable FIFO links for Saturn's metadata plane.
//
// The paper assumes the label sinks, serializers and remote proxies are
// connected by FIFO reliable channels (TCP). Under the fault model this is a
// load-bearing assumption: if a lossy link cut could silently eat a label,
// the stream delivered downstream would have a *hole*, and a later label that
// causally depends on the lost one would be applied first — a causality
// violation no receiver can detect, because labels deliberately carry no
// dependency metadata. `ReliableLinks` therefore gives every directed
// (sender node, receiver node) metadata link TCP-like semantics:
//
//  - outgoing envelopes carry a per-destination sequence number and are
//    retransmitted until cumulatively acknowledged (LinkAck);
//  - incoming envelopes are deduplicated and reordered so the owner sees the
//    exact send order, gap-free;
//  - acknowledgements and retransmissions ride a lazy maintenance tick that
//    only runs while there is work, so idle simulations still drain.
//
// Faults thus translate into *delay* (possibly long enough to trip the
// timestamp fallback, which is stability-gated and safe), never into loss.
// The only way labels truly die is with their serializer (KillEpoch), which
// silences the whole stream — exactly the outage the fallback covers.
#ifndef SRC_SATURN_RELIABLE_LINK_H_
#define SRC_SATURN_RELIABLE_LINK_H_

#include <cstdint>
#include <functional>
#include <map>

#include "src/common/flat_map.h"
#include "src/common/seq_window.h"
#include "src/core/label_codec.h"
#include "src/core/messages.h"
#include "src/sim/actor.h"
#include "src/sim/event_queue.h"
#include "src/sim/network.h"
#include "src/sim/timer.h"

namespace saturn {

// Batching policy for a link set's metadata traffic. With deadline == 0 the
// batch layer is fully disabled: every envelope goes out as its own frame the
// moment Send is called, exactly as before the batching plane existed (the
// perf_sim fingerprint gate enforces that bit-for-bit). With a nonzero
// deadline, envelopes accumulate per out-channel and flush as one
// delta-encoded LabelBatch when the batch reaches max_labels entries or
// max_bytes encoded bytes — or when the deadline (counted from the first
// pending envelope) fires, whichever comes first.
struct LinkBatchConfig {
  uint32_t max_labels = 32;
  uint32_t max_bytes = 1024;
  SimTime deadline = 0;
  bool enabled() const { return deadline > 0; }
};

class ReliableLinks {
 public:
  // `deliver` is invoked for every envelope in send order, exactly once.
  using Deliver = std::function<void(NodeId from, const LabelEnvelope&)>;

  ReliableLinks(Simulator* sim, Network* net, Actor* owner, Deliver deliver);

  // Installs the batching policy. Call before any traffic flows; the default
  // (deadline 0) keeps batching off.
  void ConfigureBatching(const LinkBatchConfig& config) { batch_ = config; }

  // Artificial propagation delay for the directed edge to `peer` (tree-solver
  // edges, section 5.4). Applied to first transmissions and retransmissions
  // alike so FIFO reasoning stays intact.
  void SetPeerDelay(NodeId peer, SimTime delay);

  // Sends `env` reliably: assigns the link sequence number, remembers the
  // envelope for retransmission and transmits — immediately, or via the
  // pending batch when batching is enabled.
  void Send(NodeId to, LabelEnvelope env);

  // Feeds a received envelope through dedup/reordering; in-order envelopes
  // (and any reorder-buffered successors) are handed to `deliver`.
  // Unsequenced envelopes (link_seq == 0, unit-test injection) bypass.
  void OnEnvelope(NodeId from, const LabelEnvelope& env);

  // Decodes a received batch frame: applies the piggybacked ack (if any) and
  // feeds every entry through OnEnvelope, so dedup/reordering and delivery
  // order are identical to per-envelope transmission.
  void OnBatch(NodeId from, const LabelBatch& batch);

  // Retires acknowledged envelopes on the channel towards `from`.
  void OnAck(NodeId from, const LinkAck& ack);

  uint64_t retransmissions() const { return retransmissions_; }
  // Retransmissions beyond the first for an envelope — the storm signature: a
  // fixed-RTO sender re-sending the same labels again and again into a link
  // that legitimately slowed. Exponential backoff keeps this near zero.
  uint64_t retransmit_storms() const { return retransmit_storms_; }
  // Retransmission frames that coalesced a contiguous run of two or more due
  // envelopes into one re-encoded batch (batching mode only).
  uint64_t retransmit_coalesced() const { return retransmit_coalesced_; }

  // Observation only: RTO retransmissions are recorded onto the owner's
  // trace track. Null disables; nothing else changes.
  void SetTrace(obs::TraceRecorder* trace, uint32_t track) {
    trace_ = trace;
    trace_track_ = track;
  }

 private:
  // Sent but not yet cumulatively acked. Sequence numbers are dense and acks
  // retire prefixes, so the live set is a contiguous window (see seq_window.h).
  struct OutEntry {
    LabelEnvelope env;
    SimTime sent_at = 0;    // last (re)transmission time
    uint32_t attempts = 0;  // transmissions so far (drives exponential backoff)
  };
  struct OutChannel {
    uint64_t next_out = 1;
    SeqWindow<OutEntry> unacked;  // contiguous [acked+1, next_out)
    SimTime delay = 0;            // artificial edge delay
    // Batching state (used only when batch_.enabled()): the open batch's
    // incremental encoder, the link_seq of its first entry and its flush
    // deadline. Entries in the open batch are also in `unacked` (attempts ==
    // 0 marks them as not yet transmitted).
    LabelBatchEncoder pending;
    uint64_t pending_first = 0;
    SimTime flush_at = kSimTimeNever;
    // Lower bound on sent_at over the *transmitted* entries of `unacked`
    // (attempts > 0; kSimTimeNever when there are none): reset when a Send
    // opens an empty window, lowered by every transmission, made exact by
    // each retransmission walk, left stale — still a lower bound — when an
    // ack retires entries. The tick skips the walk while now - oldest_sent
    // is below min(base RTO, kMaxRetryTimeout), the least RetryTimeout can
    // return (backoff and jitter only lengthen it), so no entry can be due.
    SimTime oldest_sent = kSimTimeNever;
  };
  struct InChannel {
    uint64_t next_in = 1;
    FlatMap<uint64_t, LabelEnvelope> reorder;  // arrived out of order
    bool ack_owed = false;
  };

  void Transmit(NodeId to, OutChannel* out, uint64_t seq);
  // Stamps `entry` as (re)transmitted now: sent_at, attempts, oldest_sent.
  void MarkSent(OutChannel* out, OutEntry* entry);
  void FlushBatch(NodeId to, OutChannel* out);
  void FlushDueBatches();
  void SendBatchFrame(NodeId to, const OutChannel& out, LabelBatch batch);
  SimTime Rto(NodeId to, const OutChannel& out) const;
  SimTime RetryTimeout(SimTime base_rto, const OutEntry& entry, NodeId to,
                       uint64_t seq) const;
  bool WorkPending() const;
  void ScheduleTick();
  void Tick();
  void RetransmitDue(NodeId to, OutChannel* out, SimTime now, SimTime base_rto);
  void RetransmitDueCoalesced(NodeId to, OutChannel* out, SimTime now, SimTime base_rto);

  Simulator* sim_;
  Network* net_;
  Actor* owner_;
  Deliver deliver_;
  LinkBatchConfig batch_;
  // Keyed by peer NodeId and iterated in Tick(); std::map keeps the ascending
  // node order the deterministic schedule depends on.
  std::map<NodeId, OutChannel> out_;
  std::map<NodeId, InChannel> in_;
  LazyTimer tick_;
  LazyTimer flush_;  // batch deadline timer; never armed when batching is off
  uint64_t retransmissions_ = 0;
  uint64_t retransmit_storms_ = 0;
  uint64_t retransmit_coalesced_ = 0;
  obs::TraceRecorder* trace_ = nullptr;
  uint32_t trace_track_ = 0;
};

}  // namespace saturn

#endif  // SRC_SATURN_RELIABLE_LINK_H_
