// Process-wide heap-allocation counters fed by the benchmark binary's own
// replacements of global operator new (alloc_count.cc).
#ifndef SATBENCH_ALLOC_COUNT_H_
#define SATBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace satbench {

struct AllocCount {
  uint64_t allocs = 0;
  uint64_t bytes = 0;
};

// Allocations (and requested bytes) since process start.
AllocCount AllocsSoFar();

}  // namespace satbench

#endif  // SATBENCH_ALLOC_COUNT_H_
