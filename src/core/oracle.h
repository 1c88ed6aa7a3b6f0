// Causal-consistency test oracle.
//
// The oracle tracks the *true* causal order of the run — client session order
// plus reads-from edges — independently of any protocol metadata, and checks
// that every datacenter applies remote updates in an order consistent with it.
// It is the ground truth against which Saturn, GentleRain and Cure are
// verified (and against which the eventually-consistent baseline is expected
// to fail under concurrency).
//
// Mechanics: every client carries a version vector indexed by client id; an
// update's causal past (`deps`) is the issuing client's vector at issue time.
// Because causally consistent application implies each client's updates are
// applied in session order at every interested datacenter, the check at
// "apply u at DC r" reduces to one comparison per client d: how many of d's
// updates in u's past are replicated at r, against how many of d's updates
// r has applied.
//
// Cost per call (C clients, D datacenters):
//   OnClientUpdate  O(C + D): snapshot the vector, append one rank row.
//   OnClientRead    O(1) when the read update is already in the reader's
//                   past, O(C) merge otherwise.
//   OnApply         O(C) array lookups, no searches; O(log updates) extra
//                   only on a session-order violation, to name the expected
//                   seq.
//   OnAttach        O(C) array lookups.
// Memory is O(C) per update (its deps row) plus O(C^2 + C * D): the client
// vectors and applied prefixes. That quadratic term is why million-session
// runs go without the oracle.
//
// Read skip. Write deps(w, k) for the deps of client w's k-th update and
// vec_c for client c's vector. Invariant: for every client c and writer w,
// vec_c >= deps(w, vec_c[w]) pointwise (deps(w, 0) = 0). An update by c sets
// vec_c[c] = k and snapshots deps(c, k) = vec_c, so it holds for c's own
// entry and only grows vec_c elsewhere. A read merge vec_c' = max(vec_c, d)
// with d = deps(w', k') keeps it: an entry taken from vec_c was covered
// already, and an entry taken from d is covered by d, which satisfied the
// invariant as w''s vector when it was snapshot. Since deps(w, .) is
// monotone in k, a read of w's update k with vec_c[w] >= k has
// deps(w, k) <= deps(w, vec_c[w]) <= vec_c, so the merge cannot change vec_c
// and is skipped.
//
// Rank table. ranks_[c] holds one row of D counts per prefix of c's session:
// row k, column r = how many of c's first k updates are replicated at r.
// Rows are appended once per update and never change, so "how many of d's
// first n updates are replicated at r" is one lookup, and the per-(r, d)
// applied count is cached beside the applied prefix it derives from.
#ifndef SRC_CORE_ORACLE_H_
#define SRC_CORE_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/dc_set.h"
#include "src/common/flat_map.h"
#include "src/common/types.h"

namespace saturn {

class CausalityOracle {
 public:
  CausalityOracle(uint32_t num_dcs, uint32_t num_clients)
      : num_dcs_(num_dcs),
        num_clients_(num_clients),
        deps_rows_per_block_(std::max<uint32_t>(1, kDepsBlockWords / std::max(num_clients, 1u))),
        client_vectors_(num_clients, std::vector<uint32_t>(num_clients, 0)),
        client_updates_(num_clients),
        ranks_(num_clients, std::vector<uint32_t>(num_dcs, 0)),
        applied_(num_dcs, std::vector<AppliedPrefix>(num_clients)) {}

  // Realtime backend: clients and datacenters call in from concurrent lanes.
  // Off (the default), every call stays lock-free.
  void EnableLocking() { mu_ = std::make_unique<std::mutex>(); }

  // --- Recording the ground truth --------------------------------------

  // Client `c` issued update `uid` on a key replicated at `replicas`.
  void OnClientUpdate(ClientId c, uint64_t uid, DcSet replicas) {
    SAT_CHECK(c < num_clients_);
    auto lock = Guard();
    uint32_t seq = static_cast<uint32_t>(client_updates_[c].size()) + 1;
    client_vectors_[c][c] = seq;
    client_updates_[c].push_back({uid, replicas, DcSet(), StoreDeps(client_vectors_[c])});
    auto& ranks = ranks_[c];
    ranks.resize(ranks.size() + num_dcs_);
    uint32_t* row = ranks.data() + static_cast<size_t>(seq) * num_dcs_;
    const uint32_t* prev = row - num_dcs_;
    for (DcId dc = 0; dc < num_dcs_; ++dc) {
      row[dc] = prev[dc] + (replicas.Contains(dc) ? 1 : 0);
    }
    by_uid_[uid] = {static_cast<uint32_t>(c), seq};
  }

  // Client `c` read a version written by update `uid` (0 = initial value).
  void OnClientRead(ClientId c, uint64_t uid) {
    SAT_CHECK(c < num_clients_);
    if (uid == 0) {
      return;
    }
    auto lock = Guard();
    const UpdateRef* ref = by_uid_.Find(uid);
    SAT_CHECK_MSG(ref != nullptr, "read of unknown update uid=%llu",
                  static_cast<unsigned long long>(uid));
    auto& vec = client_vectors_[c];
    if (vec[ref->client] >= ref->seq) {
      return;  // already in c's past: the merge is a no-op (header comment)
    }
    const uint32_t* deps = client_updates_[ref->client][ref->seq - 1].deps;
    for (uint32_t d = 0; d < num_clients_; ++d) {
      vec[d] = std::max(vec[d], deps[d]);
    }
  }

  // --- Checking application order --------------------------------------

  // Datacenter `dc` made update `uid` visible. Returns true if causality
  // holds; records a violation description otherwise.
  bool OnApply(DcId dc, uint64_t uid) {
    SAT_CHECK(dc < num_dcs_);
    auto lock = Guard();
    const UpdateRef* ref = by_uid_.Find(uid);
    SAT_CHECK(ref != nullptr);
    uint32_t writer = ref->client;
    uint32_t seq = ref->seq;
    UpdateInfo& u = client_updates_[writer][seq - 1];
    u.applied_at.Add(dc);

    bool ok = true;
    std::vector<AppliedPrefix>& applied = applied_[dc];
    for (uint32_t d = 0; d < num_clients_; ++d) {
      // Everything in u's causal past from client d that this DC replicates
      // must already be applied here. Exclude u itself. A past no longer
      // than the applied prefix cannot replicate more of d's updates.
      uint32_t need = d == writer ? seq - 1 : u.deps[d];
      if (need <= applied[d].seq) {
        continue;
      }
      uint32_t needed = Rank(d, need, dc);
      if (needed > applied[d].count) {
        ok = false;
        ViolationRecord v;
        v.kind = ViolationRecord::Kind::kCausalDep;
        v.dc = dc;
        v.uid = uid;
        v.writer = writer;
        v.seq = seq;
        v.dep_client = d;
        v.needed = needed;
        v.dep_seq = need;
        v.applied = applied[d].count;
        v.prefix_seq = applied[d].seq;
        violations_.push_back(v);
        break;
      }
    }
    // Advance this DC's applied-prefix pointer for the writer. Applications
    // out of session order are themselves violations (and still move the
    // pointer, backwards included).
    AppliedPrefix& mine = applied[writer];
    // In order iff seq is the first dc-replicated update past the prefix
    // (ranks are monotone, so this also implies seq > mine.seq).
    bool in_order = Rank(writer, seq - 1, dc) == mine.count &&
                    Rank(writer, seq, dc) == mine.count + 1;
    if (!in_order) {
      ok = false;
      ViolationRecord v;
      v.kind = ViolationRecord::Kind::kSessionOrder;
      v.dc = dc;
      v.uid = uid;
      v.writer = writer;
      v.seq = seq;
      v.dep_seq = NextReplicatedSeq(writer, mine.seq, dc);
      violations_.push_back(v);
    }
    mine = {seq, Rank(writer, seq, dc)};
    return ok;
  }

  // Client `c` completed an attach at `dc`: its whole causal past must be
  // visible there (paper section 4.1).
  bool OnAttach(DcId dc, ClientId c) {
    SAT_CHECK(dc < num_dcs_ && c < num_clients_);
    auto lock = Guard();
    const auto& vec = client_vectors_[c];
    const std::vector<AppliedPrefix>& applied = applied_[dc];
    for (uint32_t d = 0; d < num_clients_; ++d) {
      if (vec[d] <= applied[d].seq) {
        continue;
      }
      uint32_t needed = Rank(d, vec[d], dc);
      if (needed > applied[d].count) {
        ViolationRecord v;
        v.kind = ViolationRecord::Kind::kAttachDep;
        v.dc = dc;
        v.writer = static_cast<uint32_t>(c);
        v.dep_client = d;
        v.needed = needed;
        v.dep_seq = vec[d];
        v.applied = applied[d].count;
        v.prefix_seq = applied[d].seq;
        violations_.push_back(v);
        return false;
      }
    }
    return true;
  }

  // Violations are recorded as structured records on the checking path and
  // only rendered to strings here, so a clean run never pays for formatting
  // (the oracle's OnApply/OnAttach ride the simulator's hot loop).
  const std::vector<std::string>& violations() const {
    while (formatted_.size() < violations_.size()) {
      formatted_.push_back(Format(violations_[formatted_.size()]));
    }
    return formatted_;
  }
  bool Clean() const { return violations_.empty(); }

  // --- Liveness: replication completeness -------------------------------
  //
  // Updates that were applied somewhere but are still missing from a replica
  // — after a fault run has healed and drained, this must be empty, or a
  // fault permanently lost an update. Updates applied *nowhere* are skipped:
  // a request a crashed datacenter dropped was never acknowledged, so the
  // system owes it nothing.
  std::vector<std::string> MissingReplicas() const {
    std::vector<std::string> missing;
    for (uint32_t c = 0; c < num_clients_; ++c) {
      for (const UpdateInfo& u : client_updates_[c]) {
        if (u.applied_at.Empty()) {
          continue;  // never committed anywhere (request lost pre-commit)
        }
        DcSet want = u.replicas.Intersect(DcSet::FirstN(num_dcs_));
        if (u.applied_at.Intersect(want) != want) {
          missing.push_back("uid " + std::to_string(u.uid) + " (client " + std::to_string(c) +
                            ") applied at " + u.applied_at.ToString() + ", replicas " +
                            want.ToString());
        }
      }
    }
    return missing;
  }

 private:
  // Deps rows are stored in blocks of about this many words.
  static constexpr uint32_t kDepsBlockWords = 16384;

  std::unique_lock<std::mutex> Guard() const {
    if (mu_ == nullptr) {
      return {};
    }
    return std::unique_lock<std::mutex>(*mu_);
  }

  struct UpdateInfo {
    uint64_t uid = 0;
    DcSet replicas;
    DcSet applied_at;               // datacenters that applied it
    const uint32_t* deps = nullptr;  // writer-client vector at issue time
  };
  struct UpdateRef {
    uint32_t client = 0;
    uint32_t seq = 0;  // 1-based index into client_updates_[client]
  };
  // A datacenter's applied session prefix of one client, with the number of
  // that prefix's updates replicated at the datacenter. Assigned only as a
  // pair, so the count always equals Rank(client, seq, dc).
  struct AppliedPrefix {
    uint32_t seq = 0;
    uint32_t count = 0;
  };

  // Everything needed to render a violation message, captured as plain
  // numbers at detection time.
  struct ViolationRecord {
    enum class Kind : uint8_t { kCausalDep, kSessionOrder, kAttachDep };
    Kind kind = Kind::kCausalDep;
    DcId dc = 0;
    uint64_t uid = 0;
    uint32_t writer = 0;    // writer client (causal/session) or attaching client
    uint32_t seq = 0;
    uint32_t dep_client = 0;
    uint32_t needed = 0;
    uint32_t dep_seq = 0;   // dep seq (causal/attach) or expected seq (session)
    uint32_t applied = 0;
    uint32_t prefix_seq = 0;
  };

  static std::string Format(const ViolationRecord& v) {
    switch (v.kind) {
      case ViolationRecord::Kind::kCausalDep:
        return "dc" + std::to_string(v.dc) + " applied uid " + std::to_string(v.uid) +
               " (client " + std::to_string(v.writer) + " seq " + std::to_string(v.seq) +
               ") before causal deps from client " + std::to_string(v.dep_client) +
               ": needs " + std::to_string(v.needed) + " replicated updates (dep seq " +
               std::to_string(v.dep_seq) + "), applied " + std::to_string(v.applied) +
               " (prefix seq " + std::to_string(v.prefix_seq) + ")";
      case ViolationRecord::Kind::kSessionOrder:
        return "dc" + std::to_string(v.dc) + " applied client " + std::to_string(v.writer) +
               " seq " + std::to_string(v.seq) + " out of session order (expected seq " +
               std::to_string(v.dep_seq) + ")";
      case ViolationRecord::Kind::kAttachDep:
        return "attach of client " + std::to_string(v.writer) + " at dc" +
               std::to_string(v.dc) + " with missing deps from client " +
               std::to_string(v.dep_client) + ": needs " + std::to_string(v.needed) +
               " (dep seq " + std::to_string(v.dep_seq) + "), applied " +
               std::to_string(v.applied) + " (prefix seq " + std::to_string(v.prefix_seq) +
               ")";
    }
    return "";
  }

  // Copies `vec` into the deps arena. Blocks hold whole rows and are never
  // reallocated, so the returned row stays put for the oracle's lifetime and
  // growth never copies earlier rows.
  const uint32_t* StoreDeps(const std::vector<uint32_t>& vec) {
    if (deps_rows_left_ == 0) {
      deps_blocks_.push_back(
          std::make_unique_for_overwrite<uint32_t[]>(size_t{deps_rows_per_block_} * num_clients_));
      deps_rows_left_ = deps_rows_per_block_;
    }
    uint32_t* row = deps_blocks_.back().get() +
                    size_t{deps_rows_per_block_ - deps_rows_left_} * num_clients_;
    --deps_rows_left_;
    std::copy(vec.begin(), vec.end(), row);
    return row;
  }

  // How many of client d's first `upto` updates are replicated at `dc`.
  uint32_t Rank(uint32_t d, uint32_t upto, DcId dc) const {
    return ranks_[d][static_cast<size_t>(upto) * num_dcs_ + dc];
  }

  // The session seq of client d's next dc-replicated update after `applied`
  // (0 if none): the first row whose rank exceeds row `applied`'s.
  uint32_t NextReplicatedSeq(uint32_t d, uint32_t applied, DcId dc) const {
    uint32_t base = Rank(d, applied, dc);
    uint32_t lo = applied;
    uint32_t hi = static_cast<uint32_t>(client_updates_[d].size());
    if (lo >= hi || Rank(d, hi, dc) == base) {
      return 0;
    }
    while (hi - lo > 1) {  // Rank(lo) == base < Rank(hi)
      uint32_t mid = lo + (hi - lo) / 2;
      if (Rank(d, mid, dc) == base) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    return hi;
  }

  uint32_t num_dcs_;
  uint32_t num_clients_;
  uint32_t deps_rows_per_block_;
  uint32_t deps_rows_left_ = 0;
  std::vector<std::unique_ptr<uint32_t[]>> deps_blocks_;  // deps arena
  std::vector<std::vector<uint32_t>> client_vectors_;     // [client][client]
  std::vector<std::vector<UpdateInfo>> client_updates_;   // [client] -> session order
  std::vector<std::vector<uint32_t>> ranks_;  // [client][seq * num_dcs + dc], rank table
  std::vector<std::vector<AppliedPrefix>> applied_;  // [dc][client]
  FlatMap<uint64_t, UpdateRef> by_uid_;
  std::vector<ViolationRecord> violations_;
  mutable std::vector<std::string> formatted_;  // rendered lazily by violations()
  std::unique_ptr<std::mutex> mu_;  // null unless EnableLocking
};

}  // namespace saturn

#endif  // SRC_CORE_ORACLE_H_
