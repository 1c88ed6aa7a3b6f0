#include "checks.h"

#include <algorithm>

namespace satbench {
namespace {

// Table 1 of the paper: average one-way (half round-trip) latency between
// the seven EC2 regions, milliseconds. Order: NV, NC, O, I, F, T, S. Kept
// here rather than read from src/runtime/regions.cc so the floor check does
// not trust the table it is checking against.
constexpr int kSites = 7;
constexpr int kTable1Ms[kSites][kSites] = {
    {0, 37, 49, 41, 45, 73, 115},   {37, 0, 10, 74, 84, 52, 79},
    {49, 10, 0, 69, 79, 45, 81},    {41, 74, 69, 0, 10, 107, 154},
    {45, 84, 79, 10, 0, 118, 161},  {73, 52, 45, 107, 118, 0, 52},
    {115, 79, 81, 154, 161, 52, 0},
};

struct Bucket {
  int64_t lo = 0;
  int64_t hi = 0;
  uint64_t count = 0;
};

std::vector<Bucket> Buckets(const LatencyHistogram& hist) {
  std::vector<Bucket> out;
  for (const auto& [index, count] : hist.DiffBuckets(LatencyHistogram())) {
    out.push_back({LatencyHistogram::BucketLowerBound(index),
                   LatencyHistogram::BucketUpperBound(index), count});
  }
  return out;
}

int64_t Table1OneWayUs(SiteId a, SiteId b) {
  if (a >= kSites || b >= kSites) {
    return 0;
  }
  return int64_t{kTable1Ms[a][b]} * 1000;
}

uint64_t SamplesBelow(const LatencyHistogram& hist, int64_t floor_us) {
  if (hist.count() == 0 || hist.MinUs() >= floor_us) {
    return 0;
  }
  uint64_t below = 0;
  for (const Bucket& b : Buckets(hist)) {
    if (b.hi < floor_us) {
      below += b.count;
    }
  }
  return std::max<uint64_t>(below, 1);
}

}  // namespace

double PercentileMs(const LatencyHistogram& hist, double q) {
  if (hist.count() == 0) {
    return 0;
  }
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(hist.count());
  double seen = 0;
  for (const Bucket& b : Buckets(hist)) {
    double next = seen + static_cast<double>(b.count);
    if (next >= rank) {
      // Clamp to the recorded extremes so no sample-free value is reported
      // (a histogram of zeros reads 0).
      double lo = static_cast<double>(std::max(b.lo, hist.MinUs()));
      double hi = static_cast<double>(std::min(b.hi + 1, hist.MaxUs()));
      double frac = (rank - seen) / static_cast<double>(b.count);
      return (lo + frac * (hi - lo)) / 1000.0;
    }
    seen = next;
  }
  return static_cast<double>(hist.MaxUs()) / 1000.0;
}

FloorCheck CheckVisibilityFloor(
    const std::vector<SiteId>& dc_sites,
    const std::function<const LatencyHistogram&(DcId, DcId)>& visibility) {
  FloorCheck check;
  const auto n = static_cast<DcId>(dc_sites.size());
  for (DcId origin = 0; origin < n; ++origin) {
    for (DcId at = 0; at < n; ++at) {
      if (origin == at) {
        continue;
      }
      const LatencyHistogram& hist = visibility(origin, at);
      int64_t floor_us = Table1OneWayUs(dc_sites[origin], dc_sites[at]);
      uint64_t below = SamplesBelow(hist, floor_us);
      check.samples += hist.count();
      check.below += below;
      if (below > 0 && check.first.empty()) {
        check.first = "dc" + std::to_string(origin) + "->dc" + std::to_string(at) + " min " +
                      std::to_string(hist.MinUs()) + "us < floor " + std::to_string(floor_us) +
                      "us";
      }
    }
  }
  return check;
}

StoreCheck CheckStores(const saturn::ReplicaMap& replicas, uint32_t num_dcs,
                       const VersionAt& version_at, uint64_t total_stored) {
  StoreCheck check;
  uint64_t present = 0;
  std::vector<const saturn::VersionedValue*> at(num_dcs);
  for (KeyId key = 0; key < replicas.num_keys(); ++key) {
    saturn::DcSet want = replicas.ReplicasOf(key);
    const saturn::VersionedValue* newest = nullptr;
    for (DcId dc = 0; dc < num_dcs; ++dc) {
      at[dc] = version_at(key, dc);
      if (at[dc] == nullptr) {
        continue;
      }
      ++present;
      if (!want.Contains(dc)) {
        ++check.stray;
        if (check.first.empty()) {
          check.first = "key " + std::to_string(key) + " stored at non-replica dc" +
                        std::to_string(dc);
        }
      } else if (newest == nullptr || newest->label < at[dc]->label) {
        newest = at[dc];
      }
    }
    if (newest == nullptr) {
      continue;  // never written
    }
    ++check.keys_written;
    for (DcId dc : want) {
      if (dc < num_dcs && (at[dc] == nullptr || !(at[dc]->label == newest->label))) {
        ++check.divergent;
        if (check.first.empty()) {
          check.first = "key " + std::to_string(key) + " at dc" + std::to_string(dc) +
                        " misses version " + newest->label.ToString();
        }
      }
    }
  }
  if (total_stored > present) {
    check.stray += total_stored - present;
    if (check.first.empty()) {
      check.first = std::to_string(total_stored - present) + " stored keys outside the keyspace";
    }
  }
  return check;
}

std::string FloorControl(const std::vector<SiteId>& dc_sites) {
  if (dc_sites.size() < 2) {
    return "floor control needs two datacenters";
  }
  LatencyHistogram planted;
  planted.Record(Table1OneWayUs(dc_sites[0], dc_sites[1]) - 1);
  LatencyHistogram empty;
  FloorCheck check = CheckVisibilityFloor(
      dc_sites, [&](DcId origin, DcId at) -> const LatencyHistogram& {
        return origin == 0 && at == 1 ? planted : empty;
      });
  return check.below == 1 ? "" : "visibility floor missed a planted sub-floor sample";
}

std::string StoreControl(const saturn::ReplicaMap& replicas, uint32_t num_dcs,
                         const VersionAt& version_at, uint64_t total_stored,
                         uint64_t divergent) {
  // Doctor the first written key replicated at two datacenters or more: one
  // replica reports an older version than the others.
  for (KeyId key = 0; key < replicas.num_keys(); ++key) {
    saturn::DcSet want = replicas.ReplicasOf(key);
    if (want.Size() < 2) {
      continue;
    }
    DcId victim = *want.begin();
    const saturn::VersionedValue* real = version_at(key, victim);
    if (real == nullptr || victim >= num_dcs) {
      continue;
    }
    saturn::VersionedValue stale = *real;
    stale.label.ts -= 1;
    StoreCheck doctored = CheckStores(
        replicas, num_dcs,
        [&](KeyId k, DcId dc) { return k == key && dc == victim ? &stale : version_at(k, dc); },
        total_stored);
    return doctored.divergent == divergent + 1
               ? ""
               : "store check missed a doctored divergent replica";
  }
  return "store control found no written key with two replicas";
}

}  // namespace satbench
