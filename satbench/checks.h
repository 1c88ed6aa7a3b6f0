// Output checks computed apart from the program: the benchmark's own copy of
// the paper's Table 1, a visibility-floor check, a store-convergence check
// that reads every datacenter's store through its public accessors, and the
// histogram arithmetic the reported percentiles use.
#ifndef SATBENCH_CHECKS_H_
#define SATBENCH_CHECKS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/kvstore/versioned_store.h"
#include "src/stats/histogram.h"
#include "src/workload/replication.h"

namespace satbench {

using saturn::DcId;
using saturn::KeyId;
using saturn::LatencyHistogram;
using saturn::SiteId;

// Quantile q of `hist`, interpolated linearly inside the bucket that holds
// rank q * count: a bucket [lo, hi] is read as the interval [lo, hi + 1) us,
// clamped to the recorded minimum and maximum. The bucket is the one whose
// upper bound LatencyHistogram::PercentileMs reports, so the two differ by
// less than one bucket width (1 us below 1.024 ms, under 1.6% above). The
// program's own figure is the same bucket bound on every seed for several of
// the benchmark's percentiles; the position inside the bucket is what still
// moves. Returns milliseconds; 0 for an empty histogram.
double PercentileMs(const LatencyHistogram& hist, double q);

struct FloorCheck {
  uint64_t below = 0;   // visibility samples faster than the wire allows
  uint64_t samples = 0;
  std::string first;    // the first offending pair, for the run record
};

// Every remote-update visibility sample of pair (origin, at) must take at
// least the one-way latency of the paper's Table 1 between the two
// datacenters' sites (EC2 sites 0..6 = NV, NC, O, I, F, T, S). A sample
// counts as below when its whole bucket is, and the recorded minimum counts
// as one when it is below.
FloorCheck CheckVisibilityFloor(
    const std::vector<SiteId>& dc_sites,
    const std::function<const LatencyHistogram&(DcId, DcId)>& visibility);

// Version of `key` stored at datacenter `dc`, or null when absent.
using VersionAt = std::function<const saturn::VersionedValue*(KeyId, DcId)>;

struct StoreCheck {
  uint64_t keys_written = 0;  // keys present at one replica or more
  uint64_t divergent = 0;     // replica slots missing the key's final version
  uint64_t stray = 0;         // copies held by a datacenter that does not replicate the key
  std::string first;
};

// After quiesce every replica of every key holds the same final version, and
// no datacenter stores a key it does not replicate. `total_stored` is the sum
// of the stores' own key counts, so keys outside [0, num_keys) count as stray.
StoreCheck CheckStores(const saturn::ReplicaMap& replicas, uint32_t num_dcs,
                       const VersionAt& version_at, uint64_t total_stored);

// Negative controls for the two checks above: a visibility sample below its
// floor, and a store snapshot with one replica doctored to diverge. Each
// returns an empty string when the check reported the planted failure.
std::string FloorControl(const std::vector<SiteId>& dc_sites);
// `divergent` is what the honest check reported for the same store.
std::string StoreControl(const saturn::ReplicaMap& replicas, uint32_t num_dcs,
                         const VersionAt& version_at, uint64_t total_stored,
                         uint64_t divergent);

}  // namespace satbench

#endif  // SATBENCH_CHECKS_H_
