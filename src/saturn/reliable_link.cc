#include "src/saturn/reliable_link.h"

#include <algorithm>
#include <utility>

#include "src/common/inline_vec.h"

namespace saturn {
namespace {

// Maintenance cadence for acknowledgements and retransmission checks. Fast
// relative to wide-area latencies so acks add negligible delay, slow enough
// that an idle channel costs nothing (the tick is lazy and stops when all
// traffic is acknowledged).
constexpr SimTime kTickInterval = Millis(5);
// Safety margin on top of the round-trip estimate before a retransmission.
constexpr SimTime kRetransmitMargin = Millis(25);
// Exponential backoff: the n-th retransmission waits base_rto << n, shifted at
// most this far and never beyond kMaxRetryTimeout. Without backoff a sender
// facing a legitimately slowing link (latency drift) re-sends the same window
// every fixed RTO — a retransmit storm that only adds load.
constexpr uint32_t kBackoffCapShifts = 6;
constexpr SimTime kMaxRetryTimeout = Seconds(2);

// SplitMix64: deterministic per-(owner, peer, seq, attempt) jitter source so
// concurrent backed-off senders desynchronize without a shared RNG.
uint64_t MixJitter(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

ReliableLinks::ReliableLinks(Simulator* sim, Network* net, Actor* owner, Deliver deliver)
    : sim_(sim),
      net_(net),
      owner_(owner),
      deliver_(std::move(deliver)),
      tick_(sim,
            [this]() {
              Tick();
              if (WorkPending()) {
                ScheduleTick();
              }
            }),
      flush_(sim, [this]() { FlushDueBatches(); }) {}

void ReliableLinks::SetPeerDelay(NodeId peer, SimTime delay) {
  out_[peer].delay = delay;
}

void ReliableLinks::Send(NodeId to, LabelEnvelope env) {
  OutChannel& out = out_[to];
  uint64_t seq = out.next_out++;
  env.link_seq = seq;
  // Move the envelope straight into the (ring-backed) retransmit window; the
  // wire copy in Transmit reads from the stored entry.
  if (out.unacked.empty()) {
    out.oldest_sent = kSimTimeNever;  // nothing transmitted is left unacked
  }
  out.unacked.Push(seq, OutEntry{std::move(env), 0});
  if (!batch_.enabled()) {
    Transmit(to, &out, seq);
    ScheduleTick();
    return;
  }
  // Batched path: the envelope joins the open batch instead of going out as
  // its own frame; its window entry keeps attempts == 0 until the flush.
  if (out.pending.count() == 0) {
    out.pending_first = seq;
    out.flush_at = sim_->Now() + batch_.deadline;
  }
  out.pending.Add(out.unacked.At(seq).env);
  if (out.pending.count() >= batch_.max_labels || out.pending.size() >= batch_.max_bytes) {
    FlushBatch(to, &out);
  } else {
    flush_.Arm(batch_.deadline);
  }
  ScheduleTick();
}

void ReliableLinks::MarkSent(OutChannel* out, OutEntry* entry) {
  entry->sent_at = sim_->Now();
  ++entry->attempts;
  out->oldest_sent = std::min(out->oldest_sent, entry->sent_at);
}

void ReliableLinks::Transmit(NodeId to, OutChannel* out, uint64_t seq) {
  OutEntry& entry = out->unacked.At(seq);
  MarkSent(out, &entry);
  if (out->delay > 0) {
    // Artificial edge delay (section 5.4): constant per directed edge, so it
    // shifts but never reorders transmissions.
    Network* net = net_;
    NodeId self = owner_->node_id();
    LabelEnvelope copy = entry.env;
    sim_->After(out->delay, [net, self, to, copy]() { net->Send(self, to, copy); });
  } else {
    net_->Send(owner_->node_id(), to, entry.env);
  }
}

void ReliableLinks::FlushBatch(NodeId to, OutChannel* out) {
  if (out->pending.count() == 0) {
    return;
  }
  LabelBatch batch;
  batch.first_seq = out->pending_first;
  batch.count = out->pending.count();
  batch.bytes = out->pending.Take();
  out->flush_at = kSimTimeNever;
  // Piggyback the cumulative ack owed on the reverse direction of this link:
  // while data flows both ways, no standalone LinkAck frames are needed (the
  // lazy tick only acks channels still owed when it fires).
  if (auto in = in_.find(to); in != in_.end() && in->second.ack_owed) {
    batch.has_ack = true;
    batch.acked = in->second.next_in - 1;
    in->second.ack_owed = false;
  }
  SimTime now = sim_->Now();
  for (uint64_t seq = batch.first_seq; seq < batch.first_seq + batch.count; ++seq) {
    MarkSent(out, &out->unacked.At(seq));
  }
  if (trace_ != nullptr) {
    trace_->Hop(now, trace_track_, "batch.flush", 0, static_cast<int64_t>(batch.count),
                static_cast<int64_t>(batch.bytes.size()));
  }
  SendBatchFrame(to, *out, std::move(batch));
}

void ReliableLinks::FlushDueBatches() {
  SimTime now = sim_->Now();
  SimTime next = kSimTimeNever;
  for (auto& [peer, out] : out_) {
    if (out.pending.count() == 0) {
      continue;
    }
    if (out.flush_at <= now) {
      FlushBatch(peer, &out);
    } else if (out.flush_at < next) {
      next = out.flush_at;
    }
  }
  if (next != kSimTimeNever) {
    flush_.Arm(next - now);
  }
}

void ReliableLinks::SendBatchFrame(NodeId to, const OutChannel& out, LabelBatch batch) {
  if (out.delay > 0) {
    Network* net = net_;
    NodeId self = owner_->node_id();
    sim_->After(out.delay, [net, self, to, m = std::move(batch)]() mutable {
      net->Send(self, to, std::move(m));
    });
  } else {
    net_->Send(owner_->node_id(), to, std::move(batch));
  }
}

void ReliableLinks::OnEnvelope(NodeId from, const LabelEnvelope& env) {
  if (env.link_seq == 0) {
    deliver_(from, env);  // unsequenced: unit-test injection
    return;
  }
  InChannel& in = in_[from];
  in.ack_owed = true;  // every arrival (duplicates included) triggers a re-ack
  ScheduleTick();
  if (env.link_seq < in.next_in) {
    return;  // duplicate of something already delivered
  }
  if (env.link_seq > in.next_in) {
    in.reorder[env.link_seq] = env;  // gap: park until the hole fills
    return;
  }
  deliver_(from, env);
  ++in.next_in;
  while (LabelEnvelope* buffered = in.reorder.Find(in.next_in)) {
    LabelEnvelope next = *buffered;
    in.reorder.Erase(in.next_in);
    deliver_(from, next);
    ++in.next_in;
  }
}

void ReliableLinks::OnBatch(NodeId from, const LabelBatch& batch) {
  if (batch.has_ack) {
    LinkAck ack;
    ack.acked = batch.acked;
    OnAck(from, ack);
  }
  // Every decoded entry goes through the same dedup/reorder as a standalone
  // envelope, so partially duplicate retransmitted batches are harmless and
  // delivery order is identical to per-envelope transmission.
  LabelBatchDecoder dec(batch.bytes.data(), batch.bytes.size());
  LabelEnvelope env;
  uint64_t seq = batch.first_seq;
  for (uint32_t i = 0; i < batch.count; ++i) {
    if (!dec.Next(&env)) {
      break;
    }
    env.link_seq = seq++;
    OnEnvelope(from, env);
  }
  SAT_CHECK_MSG(dec.ok(), "malformed label batch from node %u", from);
}

void ReliableLinks::OnAck(NodeId from, const LinkAck& ack) {
  auto channel = out_.find(from);
  if (channel == out_.end()) {
    return;
  }
  channel->second.unacked.PopUpTo(ack.acked);
}

SimTime ReliableLinks::Rto(NodeId to, const OutChannel& out) const {
  SimTime one_way =
      net_->BaseLatency(net_->SiteOf(owner_->node_id()), net_->SiteOf(to)) + out.delay;
  return 4 * one_way + kRetransmitMargin;
}

SimTime ReliableLinks::RetryTimeout(SimTime base_rto, const OutEntry& entry, NodeId to,
                                    uint64_t seq) const {
  uint32_t shifts = entry.attempts > 0 ? entry.attempts - 1 : 0;
  if (shifts > kBackoffCapShifts) {
    shifts = kBackoffCapShifts;
  }
  SimTime rto = base_rto << shifts;
  if (rto > kMaxRetryTimeout) {
    rto = kMaxRetryTimeout;
  }
  uint64_t key = (static_cast<uint64_t>(owner_->node_id()) << 48) ^
                 (static_cast<uint64_t>(to) << 32) ^ (seq << 8) ^ entry.attempts;
  SimTime jitter_span = rto / 8;
  if (jitter_span > 0) {
    rto += static_cast<SimTime>(MixJitter(key) % static_cast<uint64_t>(jitter_span));
  }
  return rto;
}

bool ReliableLinks::WorkPending() const {
  for (const auto& [peer, out] : out_) {
    if (!out.unacked.empty()) {
      return true;
    }
  }
  for (const auto& [peer, in] : in_) {
    if (in.ack_owed) {
      return true;
    }
  }
  return false;
}

void ReliableLinks::ScheduleTick() {
  tick_.Arm(kTickInterval);
}

void ReliableLinks::Tick() {
  SimTime now = sim_->Now();
  for (auto& [peer, in] : in_) {
    if (!in.ack_owed) {
      continue;
    }
    if (batch_.enabled()) {
      // Reverse link busy: an open batch towards this peer flushes within the
      // deadline and piggybacks the cumulative ack. Standalone ack frames are
      // for idle reverse links only.
      if (auto o = out_.find(peer); o != out_.end() && o->second.pending.count() > 0) {
        continue;
      }
    }
    LinkAck ack;
    ack.acked = in.next_in - 1;
    net_->Send(owner_->node_id(), peer, ack);
    in.ack_owed = false;
  }
  for (auto& [peer, out] : out_) {
    if (out.unacked.empty()) {
      continue;
    }
    // RetryTimeout is never below min(base RTO, kMaxRetryTimeout): backoff
    // and jitter only lengthen it. While the oldest transmission is younger
    // than that, no entry is due and the walk would send nothing. The base
    // RTO is read at every tick, so a drift that shortens it is honoured.
    SimTime base_rto = Rto(peer, out);
    if (now - out.oldest_sent < std::min(base_rto, kMaxRetryTimeout)) {
      continue;
    }
    if (batch_.enabled()) {
      RetransmitDueCoalesced(peer, &out, now, base_rto);
    } else {
      RetransmitDue(peer, &out, now, base_rto);
    }
  }
}

void ReliableLinks::RetransmitDue(NodeId to, OutChannel* out, SimTime now, SimTime base_rto) {
  // Recompute the bound exactly: entries left alone keep their sent_at,
  // resent ones lower it to now through Transmit.
  out->oldest_sent = kSimTimeNever;
  out->unacked.ForEach([&](uint64_t seq, OutEntry& entry) {
    if (now - entry.sent_at < RetryTimeout(base_rto, entry, to, seq)) {
      out->oldest_sent = std::min(out->oldest_sent, entry.sent_at);
    } else {
      ++retransmissions_;
      if (entry.attempts >= 2) {
        ++retransmit_storms_;
      }
      if (trace_ != nullptr) {
        trace_->Instant(now, trace_track_, "link.retransmit", nullptr, to,
                        static_cast<int64_t>(seq));
      }
      Transmit(to, out, seq);
    }
  });
}

void ReliableLinks::RetransmitDueCoalesced(NodeId to, OutChannel* out, SimTime now,
                                           SimTime base_rto) {
  // Collect due sequence numbers first (ascending, from ForEach), then resend
  // contiguous runs as single re-encoded batch frames instead of one frame
  // per envelope — an RTO on a batched link re-sends the window, and without
  // coalescing that resend would undo the batching win exactly when the link
  // is already struggling.
  // The bound is recomputed over the entries that stay put; the resends
  // below lower it to now through MarkSent.
  InlineVec<uint64_t, 64> due;
  out->oldest_sent = kSimTimeNever;
  out->unacked.ForEach([&](uint64_t seq, OutEntry& entry) {
    if (entry.attempts == 0) {
      return;  // still pending in the open batch: never transmitted yet
    }
    if (now - entry.sent_at >= RetryTimeout(base_rto, entry, to, seq)) {
      due.push_back(seq);
    } else {
      out->oldest_sent = std::min(out->oldest_sent, entry.sent_at);
    }
  });
  size_t i = 0;
  while (i < due.size()) {
    size_t j = i + 1;
    while (j < due.size() && due[j] == due[j - 1] + 1 &&
           static_cast<uint32_t>(j - i) < batch_.max_labels) {
      ++j;
    }
    const uint32_t run = static_cast<uint32_t>(j - i);
    if (run == 1) {
      uint64_t seq = due[i];
      OutEntry& entry = out->unacked.At(seq);
      ++retransmissions_;
      if (entry.attempts >= 2) {
        ++retransmit_storms_;
      }
      if (trace_ != nullptr) {
        trace_->Instant(now, trace_track_, "link.retransmit", nullptr, to,
                        static_cast<int64_t>(seq));
      }
      Transmit(to, out, seq);
    } else {
      LabelBatch batch;
      batch.first_seq = due[i];
      batch.count = run;
      LabelBatchEncoder enc;
      for (uint64_t seq = due[i]; seq < due[i] + run; ++seq) {
        OutEntry& entry = out->unacked.At(seq);
        enc.Add(entry.env);
        MarkSent(out, &entry);
        ++retransmissions_;
        if (entry.attempts >= 3) {  // attempts was >= 2 before this resend
          ++retransmit_storms_;
        }
      }
      batch.bytes = enc.Take();
      ++retransmit_coalesced_;
      if (trace_ != nullptr) {
        trace_->Instant(now, trace_track_, "link.retransmit_coalesced", nullptr, to,
                        static_cast<int64_t>(run));
      }
      SendBatchFrame(to, *out, std::move(batch));
    }
    i = j;
  }
}

}  // namespace saturn
