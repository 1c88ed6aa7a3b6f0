#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/oracle.h"
#include "src/sim/random.h"

namespace saturn {
namespace {

constexpr DcSet kBoth{0b11};  // replicated at DC 0 and DC 1

TEST(Oracle, CleanWhenSessionOrderRespected) {
  CausalityOracle oracle(2, 1);
  oracle.OnClientUpdate(0, 101, kBoth);
  oracle.OnClientUpdate(0, 102, kBoth);
  EXPECT_TRUE(oracle.OnApply(0, 101));
  EXPECT_TRUE(oracle.OnApply(0, 102));
  EXPECT_TRUE(oracle.OnApply(1, 101));
  EXPECT_TRUE(oracle.OnApply(1, 102));
  EXPECT_TRUE(oracle.Clean());
}

TEST(Oracle, DetectsSessionOrderViolation) {
  CausalityOracle oracle(2, 1);
  oracle.OnClientUpdate(0, 101, kBoth);
  oracle.OnClientUpdate(0, 102, kBoth);
  oracle.OnApply(0, 101);
  oracle.OnApply(0, 102);
  // DC 1 applies the second update first: a causality violation.
  EXPECT_FALSE(oracle.OnApply(1, 102));
  EXPECT_FALSE(oracle.Clean());
}

TEST(Oracle, DetectsReadFromViolation) {
  CausalityOracle oracle(2, 2);
  // Client 0 writes u1; client 1 reads it and writes u2 (u1 -> u2).
  oracle.OnClientUpdate(0, 11, kBoth);
  oracle.OnApply(0, 11);
  oracle.OnClientRead(1, 11);
  oracle.OnClientUpdate(1, 22, kBoth);
  oracle.OnApply(0, 22);
  // DC 1 applies u2 before u1: violation.
  EXPECT_FALSE(oracle.OnApply(1, 22));
}

TEST(Oracle, DetectsMissingDepsEvenAtOrigin) {
  CausalityOracle oracle(2, 2);
  oracle.OnClientUpdate(0, 11, kBoth);
  oracle.OnApply(0, 11);
  oracle.OnClientRead(1, 11);
  oracle.OnClientUpdate(1, 22, kBoth);
  // u2 is applied at DC 1 (its origin) while its dependency u1 has not been
  // applied there: still a violation — the client should not have been able
  // to observe u1 at a datacenter that does not have it.
  oracle.OnApply(1, 22);
  EXPECT_FALSE(oracle.Clean());
}

TEST(Oracle, PartialReplicationSkipsUnreplicatedDeps) {
  CausalityOracle oracle(2, 2);
  constexpr DcSet kOnlyDc0{0b01};
  // u1 lives only at DC 0; u2 (depending on u1) lives at both.
  oracle.OnClientUpdate(0, 11, kOnlyDc0);
  oracle.OnApply(0, 11);
  oracle.OnClientRead(1, 11);
  oracle.OnClientUpdate(1, 22, kBoth);
  oracle.OnApply(1, 22);
  // DC 1 never receives u1, so applying u2 there without u1 is fine.
  EXPECT_TRUE(oracle.Clean());
}

TEST(Oracle, TransitiveDependencyThroughUnreplicatedItem) {
  CausalityOracle oracle(2, 3);
  constexpr DcSet kOnlyDc0{0b01};
  // u1 (both DCs) -> read by c1 -> u2 (only DC 0) -> read by c2 -> u3 (both).
  oracle.OnClientUpdate(0, 11, kBoth);
  oracle.OnApply(0, 11);
  oracle.OnClientRead(1, 11);
  oracle.OnClientUpdate(1, 22, kOnlyDc0);
  oracle.OnApply(0, 22);
  oracle.OnClientRead(2, 22);
  oracle.OnClientUpdate(2, 33, kBoth);
  oracle.OnApply(0, 33);
  // DC 1 must apply u1 before u3 even though the middle link u2 never reaches
  // it (transitivity of causality).
  EXPECT_FALSE(oracle.OnApply(1, 33));
}

TEST(Oracle, AttachRequiresCausalPastVisible) {
  CausalityOracle oracle(2, 2);
  oracle.OnClientUpdate(0, 11, kBoth);
  oracle.OnApply(0, 11);
  oracle.OnClientRead(1, 11);
  // Client 1 attaches at DC 1 where u1 has not been applied yet.
  EXPECT_FALSE(oracle.OnAttach(1, 1));
  oracle.OnApply(1, 11);
  EXPECT_TRUE(oracle.OnAttach(1, 1));
}

TEST(Oracle, ReadOfInitialValueIsNoDependency) {
  CausalityOracle oracle(1, 1);
  oracle.OnClientRead(0, 0);  // uid 0 = never-written key
  oracle.OnClientUpdate(0, 11, DcSet::Single(0));
  EXPECT_TRUE(oracle.OnApply(0, 11));
  EXPECT_TRUE(oracle.Clean());
}

TEST(Oracle, IndependentClientsAreConcurrent) {
  CausalityOracle oracle(2, 2);
  oracle.OnClientUpdate(0, 11, kBoth);
  oracle.OnClientUpdate(1, 22, kBoth);
  oracle.OnApply(0, 11);
  oracle.OnApply(0, 22);
  // DC 1 applies them in the opposite order: fine, they are concurrent.
  EXPECT_TRUE(oracle.OnApply(1, 22));
  EXPECT_TRUE(oracle.OnApply(1, 11));
  EXPECT_TRUE(oracle.Clean());
}


// --- Differential check against the reference algorithm ------------------
//
// ReferenceOracle is the oracle as it stood before the read skip and the rank
// table: a full vector merge on every read and binary searches over sorted
// per-(client, datacenter) seq lists on every check (locking dropped; this
// copy is single-threaded). CausalityOracle must agree with it on every
// return value, every violation string and every missing-replica line.

class ReferenceOracle {
 public:
  ReferenceOracle(uint32_t num_dcs, uint32_t num_clients)
      : num_dcs_(num_dcs),
        num_clients_(num_clients),
        client_vectors_(num_clients, std::vector<uint32_t>(num_clients, 0)),
        client_updates_(num_clients),
        replicated_seqs_(static_cast<size_t>(num_clients) * num_dcs),
        prefix_(num_dcs, std::vector<uint32_t>(num_clients, 0)) {}

  // --- Recording the ground truth --------------------------------------

  // Client `c` issued update `uid` on a key replicated at `replicas`.
  // Returns the update's session index.
  void OnClientUpdate(ClientId c, uint64_t uid, DcSet replicas) {
    SAT_CHECK(c < num_clients_);
    uint32_t seq = static_cast<uint32_t>(client_updates_[c].size()) + 1;
    client_vectors_[c][c] = seq;
    UpdateInfo info;
    info.uid = uid;
    info.replicas = replicas;
    info.deps = client_vectors_[c];
    client_updates_[c].push_back(info);
    for (DcId dc : replicas) {
      if (dc < num_dcs_) {
        SeqList(c, dc).push_back(seq);
      }
    }
    by_uid_[uid] = {static_cast<uint32_t>(c), seq};
  }

  // Client `c` read a version written by update `uid` (0 = initial value).
  void OnClientRead(ClientId c, uint64_t uid) {
    SAT_CHECK(c < num_clients_);
    if (uid == 0) {
      return;
    }
    auto it = by_uid_.find(uid);
    SAT_CHECK_MSG(it != by_uid_.end(), "read of unknown update uid=%llu",
                  static_cast<unsigned long long>(uid));
    const UpdateInfo& u = client_updates_[it->second.client][it->second.seq - 1];
    auto& vec = client_vectors_[c];
    for (uint32_t d = 0; d < num_clients_; ++d) {
      if (u.deps[d] > vec[d]) {
        vec[d] = u.deps[d];
      }
    }
  }

  // --- Checking application order --------------------------------------

  // Datacenter `dc` made update `uid` visible. Returns true if causality
  // holds; records a violation description otherwise.
  bool OnApply(DcId dc, uint64_t uid) {
    SAT_CHECK(dc < num_dcs_);
    auto it = by_uid_.find(uid);
    SAT_CHECK(it != by_uid_.end());
    applied_at_[uid].Add(dc);
    uint32_t writer = it->second.client;
    uint32_t seq = it->second.seq;
    const UpdateInfo& u = client_updates_[writer][seq - 1];

    bool ok = true;
    for (uint32_t d = 0; d < num_clients_; ++d) {
      // Everything in u's causal past from client d that this DC replicates
      // must already be applied here. Exclude u itself.
      uint32_t need = u.deps[d];
      if (d == writer) {
        need = seq - 1;
      }
      if (CountReplicatedPrefix(d, need, dc) > AppliedReplicatedCount(dc, d)) {
        ok = false;
        ViolationRecord v;
        v.kind = ViolationRecord::Kind::kCausalDep;
        v.dc = dc;
        v.uid = uid;
        v.writer = writer;
        v.seq = seq;
        v.dep_client = d;
        v.needed = CountReplicatedPrefix(d, need, dc);
        v.dep_seq = need;
        v.applied = AppliedReplicatedCount(dc, d);
        v.prefix_seq = prefix_[dc][d];
        violations_.push_back(v);
        break;
      }
    }
    // Advance this DC's applied-prefix pointer for the writer. Applications
    // out of session order are themselves violations.
    uint32_t& applied = prefix_[dc][writer];
    uint32_t expected = NextReplicatedSeq(writer, applied, dc);
    if (expected != seq) {
      ok = false;
      ViolationRecord v;
      v.kind = ViolationRecord::Kind::kSessionOrder;
      v.dc = dc;
      v.uid = uid;
      v.writer = writer;
      v.seq = seq;
      v.dep_seq = expected;
      violations_.push_back(v);
    }
    applied = seq;
    return ok;
  }

  // Client `c` completed an attach at `dc`: its whole causal past must be
  // visible there (paper section 4.1).
  bool OnAttach(DcId dc, ClientId c) {
    SAT_CHECK(dc < num_dcs_ && c < num_clients_);
    const auto& vec = client_vectors_[c];
    for (uint32_t d = 0; d < num_clients_; ++d) {
      if (CountReplicatedPrefix(d, vec[d], dc) > AppliedReplicatedCount(dc, d)) {
        ViolationRecord v;
        v.kind = ViolationRecord::Kind::kAttachDep;
        v.dc = dc;
        v.writer = static_cast<uint32_t>(c);
        v.dep_client = d;
        v.needed = CountReplicatedPrefix(d, vec[d], dc);
        v.dep_seq = vec[d];
        v.applied = AppliedReplicatedCount(dc, d);
        v.prefix_seq = prefix_[dc][d];
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
        auto it = applied_at_.find(u.uid);
        if (it == applied_at_.end()) {
          continue;  // never committed anywhere (request lost pre-commit)
        }
        DcSet want = u.replicas.Intersect(DcSet::FirstN(num_dcs_));
        if (it->second.Intersect(want) != want) {
          missing.push_back("uid " + std::to_string(u.uid) + " (client " + std::to_string(c) +
                            ") applied at " + it->second.ToString() + ", replicas " +
                            want.ToString());
        }
      }
    }
    return missing;
  }

 private:
  struct UpdateInfo {
    uint64_t uid = 0;
    DcSet replicas;
    std::vector<uint32_t> deps;  // writer-client vector at issue time
  };
  struct UpdateRef {
    uint32_t client = 0;
    uint32_t seq = 0;  // 1-based index into client_updates_[client]
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

  // Session seqs of client c's updates replicated at dc, in ascending order.
  std::vector<uint32_t>& SeqList(uint32_t c, DcId dc) {
    return replicated_seqs_[static_cast<size_t>(c) * num_dcs_ + dc];
  }
  const std::vector<uint32_t>& SeqList(uint32_t c, DcId dc) const {
    return replicated_seqs_[static_cast<size_t>(c) * num_dcs_ + dc];
  }

  // How many of client d's first `upto` updates are replicated at `dc`.
  uint32_t CountReplicatedPrefix(uint32_t d, uint32_t upto, DcId dc) const {
    const auto& seqs = SeqList(d, dc);
    return static_cast<uint32_t>(std::upper_bound(seqs.begin(), seqs.end(), upto) -
                                 seqs.begin());
  }

  uint32_t AppliedReplicatedCount(DcId dc, uint32_t d) const {
    return CountReplicatedPrefix(d, prefix_[dc][d], dc);
  }

  // The session seq of client d's next dc-replicated update after `applied`.
  uint32_t NextReplicatedSeq(uint32_t d, uint32_t applied, DcId dc) const {
    const auto& seqs = SeqList(d, dc);
    auto it = std::upper_bound(seqs.begin(), seqs.end(), applied);
    return it == seqs.end() ? 0 : *it;
  }

  uint32_t num_dcs_;
  uint32_t num_clients_;
  std::vector<std::vector<uint32_t>> client_vectors_;   // [client][client]
  std::vector<std::vector<UpdateInfo>> client_updates_; // [client] -> session order
  std::vector<std::vector<uint32_t>> replicated_seqs_;  // [client * num_dcs + dc]
  std::vector<std::vector<uint32_t>> prefix_;           // [dc][client] applied session prefix
  std::unordered_map<uint64_t, UpdateRef> by_uid_;
  std::unordered_map<uint64_t, DcSet> applied_at_;
  std::vector<ViolationRecord> violations_;
  mutable std::vector<std::string> formatted_;  // rendered lazily by violations()
};

// Drives both oracles with the same calls and compares every answer.
class Differ {
 public:
  Differ(uint32_t num_dcs, uint32_t num_clients)
      : fast_(num_dcs, num_clients), ref_(num_dcs, num_clients) {}

  void Update(ClientId c, uint64_t uid, DcSet replicas) {
    fast_.OnClientUpdate(c, uid, replicas);
    ref_.OnClientUpdate(c, uid, replicas);
  }
  void Read(ClientId c, uint64_t uid) {
    fast_.OnClientRead(c, uid);
    ref_.OnClientRead(c, uid);
  }
  bool Apply(DcId dc, uint64_t uid) {
    bool got = fast_.OnApply(dc, uid);
    EXPECT_EQ(got, ref_.OnApply(dc, uid)) << "apply uid " << uid << " at dc" << dc;
    return got;
  }
  bool Attach(DcId dc, ClientId c) {
    bool got = fast_.OnAttach(dc, c);
    EXPECT_EQ(got, ref_.OnAttach(dc, c)) << "attach client " << c << " at dc" << dc;
    return got;
  }
  void ExpectSameVerdicts() const {
    EXPECT_EQ(fast_.Clean(), ref_.Clean());
    EXPECT_EQ(fast_.violations(), ref_.violations());
    EXPECT_EQ(fast_.MissingReplicas(), ref_.MissingReplicas());
  }
  const CausalityOracle& fast() const { return fast_; }

 private:
  CausalityOracle fast_;
  ReferenceOracle ref_;
};

// One seeded random history: partial replica sets (sometimes naming a
// datacenter outside the deployment), reads-from edges, and per-datacenter
// apply streams that mostly follow issue order (a causal order) but also
// apply random updates early, twice, or where they are not replicated.
void RunRandomHistory(uint64_t seed, size_t* violations_seen) {
  Rng rng(seed);
  const uint32_t num_dcs = 3 + static_cast<uint32_t>(rng.NextBounded(3));
  const uint32_t num_clients = 2 + static_cast<uint32_t>(rng.NextBounded(11));
  Differ oracles(num_dcs, num_clients);
  struct Issued {
    uint64_t uid;
    DcSet replicas;
  };
  std::vector<Issued> issued;
  std::vector<size_t> cursor(num_dcs, 0);  // per-dc position in issue order
  uint64_t next_uid = 1000 + seed * 100000;

  for (int step = 0; step < 600; ++step) {
    uint64_t roll = rng.NextBounded(100);
    if (issued.empty() || roll < 30) {
      ClientId c = rng.NextBounded(num_clients);
      DcSet replicas(1 + rng.NextBounded((uint64_t{1} << num_dcs) - 1));
      if (rng.NextBool(0.1)) {
        replicas.Add(num_dcs + 1);  // outside the deployment: never counted
      }
      uint64_t uid = next_uid;
      next_uid += 1 + rng.NextBounded(5);
      oracles.Update(c, uid, replicas);
      issued.push_back({uid, replicas});
    } else if (roll < 55) {
      ClientId c = rng.NextBounded(num_clients);
      uint64_t uid = 0;
      if (!rng.NextBool(0.1)) {
        // Favour recent updates so read chains build long causal pasts.
        size_t back = rng.NextBounded(std::min<size_t>(issued.size(), 8));
        if (rng.NextBool(0.3)) {
          back = rng.NextBounded(issued.size());
        }
        uid = issued[issued.size() - 1 - back].uid;
      }
      oracles.Read(c, uid);
    } else if (roll < 93) {
      DcId dc = static_cast<DcId>(rng.NextBounded(num_dcs));
      if (rng.NextBool(0.8)) {
        size_t& at = cursor[dc];
        while (at < issued.size() && !issued[at].replicas.Contains(dc)) {
          ++at;
        }
        if (at < issued.size()) {
          oracles.Apply(dc, issued[at++].uid);
        }
      } else {
        oracles.Apply(dc, issued[rng.NextBounded(issued.size())].uid);
      }
    } else {
      oracles.Attach(static_cast<DcId>(rng.NextBounded(num_dcs)),
                     rng.NextBounded(num_clients));
    }
    if (step % 50 == 0) {
      oracles.ExpectSameVerdicts();
    }
  }
  oracles.ExpectSameVerdicts();
  *violations_seen += oracles.fast().violations().size();
}

TEST(OracleDifferential, RandomHistoriesMatchReference) {
  size_t violations_seen = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RunRandomHistory(seed, &violations_seen);
    if (HasFailure()) {
      break;
    }
  }
  // The histories must exercise the violation paths, not only clean runs.
  EXPECT_GT(violations_seen, 1000u);
}

TEST(OracleDifferential, ReadOfOwnUpdateIsSkippedAndExact) {
  Differ oracles(2, 2);
  oracles.Update(0, 11, kBoth);
  oracles.Read(0, 11);  // own update: already in the past
  oracles.Update(0, 12, kBoth);
  EXPECT_TRUE(oracles.Apply(1, 11));
  EXPECT_TRUE(oracles.Apply(1, 12));
  oracles.Read(1, 12);
  oracles.Read(1, 11);  // writer seq 1 <= known seq 2: skipped
  EXPECT_TRUE(oracles.Attach(1, 1));
  EXPECT_FALSE(oracles.Attach(0, 1));
  oracles.ExpectSameVerdicts();
}

TEST(OracleDifferential, TransitivelyKnownReadIsSkipped) {
  constexpr DcSet kOnlyDc0{0b01};
  Differ oracles(3, 3);
  oracles.Update(0, 11, kBoth);
  oracles.Read(1, 11);
  oracles.Update(1, 22, kOnlyDc0);
  oracles.Read(2, 22);  // brings u1 in transitively
  oracles.Read(2, 11);  // already known through u2: skipped
  oracles.Update(2, 33, kBoth);
  EXPECT_TRUE(oracles.Apply(0, 11));
  EXPECT_TRUE(oracles.Apply(0, 22));
  EXPECT_TRUE(oracles.Apply(0, 33));
  EXPECT_FALSE(oracles.Apply(1, 33));  // u1 missing at dc1
  EXPECT_FALSE(oracles.Attach(1, 2));
  oracles.ExpectSameVerdicts();
  EXPECT_EQ(oracles.fast().violations().size(), 2u);
}

TEST(OracleDifferential, ReadAfterPrefixMovedBackwards) {
  Differ oracles(2, 2);
  oracles.Update(0, 11, kBoth);
  oracles.Update(0, 12, kBoth);
  oracles.Update(0, 13, kBoth);
  EXPECT_FALSE(oracles.Apply(1, 12));  // skips u1: session-order violation
  EXPECT_FALSE(oracles.Apply(1, 11));  // moves dc1's prefix back to seq 1
  oracles.Read(1, 12);
  oracles.Read(1, 11);  // known through the read of u2: skipped
  oracles.Update(1, 21, kBoth);
  EXPECT_FALSE(oracles.Apply(1, 21));  // dc1's prefix for client 0 is 1 < 2
  EXPECT_FALSE(oracles.Attach(1, 1));
  EXPECT_FALSE(oracles.Apply(1, 13));  // expected seq 2 after the rewind
  EXPECT_TRUE(oracles.Attach(1, 1));
  oracles.ExpectSameVerdicts();
  EXPECT_EQ(oracles.fast().violations().size(), 7u);
}

TEST(OracleDifferential, NonReplicatedApplyAndMissingReplicas) {
  constexpr DcSet kOnlyDc0{0b01};
  Differ oracles(2, 1);
  oracles.Update(0, 11, kOnlyDc0);
  oracles.Update(0, 12, kBoth);
  oracles.Update(0, 13, kBoth);
  EXPECT_FALSE(oracles.Apply(1, 11));  // not replicated at dc1
  EXPECT_TRUE(oracles.Apply(1, 12));
  EXPECT_TRUE(oracles.Apply(0, 11));
  oracles.ExpectSameVerdicts();
  // u2 is applied at dc1 only, u3 nowhere (never committed): one line.
  EXPECT_EQ(oracles.fast().MissingReplicas(),
            std::vector<std::string>{"uid 12 (client 0) applied at {1}, replicas {0,1}"});
}

}  // namespace
}  // namespace saturn
