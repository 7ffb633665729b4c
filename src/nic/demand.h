// Builds a per-packet NIC resource demand (NfDemand) for an NF under a
// workload, by combining:
//   * the compiled NIC program (per-block instruction/memory costs),
//   * the interpreter's workload-specific profile (per-block execution
//     frequencies, per-state-variable access counts), and
//   * a state placement (which memory region each variable lives in).
//
// This is the bridge between Clara's static/learned analyses and the
// performance simulator.
#ifndef SRC_NIC_DEMAND_H_
#define SRC_NIC_DEMAND_H_

#include <map>
#include <string>
#include <vector>

#include "src/lang/interp.h"
#include "src/nic/isa.h"
#include "src/nic/perf_model.h"
#include "src/workload/workload.h"

namespace clara {

// Effect of a memory-access-coalescing plan on one variable (paper §4.4):
// `access_scale` < 1 means several formerly separate accesses are fetched as
// one pack; `words_scale` > 1 widens each access accordingly.
struct CoalesceEffect {
  double access_scale = 1.0;
  double words_scale = 1.0;
};

struct DemandOptions {
  // Per-state-variable placement; defaults to all-EMEM (the naive port).
  std::map<std::string, MemRegion> placement;
  // Per-variable coalescing effects (by variable name).
  std::map<std::string, CoalesceEffect> coalescing;
};

NfDemand BuildDemand(const Module& m, const NicProgram& prog, const NfProfile& profile,
                     const WorkloadSpec& workload, const NicConfig& cfg,
                     const DemandOptions& opts = DemandOptions{});

// `prog` reduced to what BuildDemand reads: each block keeps its counts and
// issue_cycles, and its instrs/moves are released. BuildDemand on the result
// equals BuildDemand on `prog`.
NicProgram DemandCosts(NicProgram prog);

// Per-packet average words touched per access for a state variable.
double WordsPerAccess(const StateVar& sv);

// Cache-hit estimate for a variable of `size_bytes` under `workload` given an
// EMEM cache of `cache_bytes`: structures that fit are near-always hits; flow
// tables hit with the workload's flow-locality probability.
double VarCacheHitRate(const StateVar& sv, const WorkloadSpec& workload,
                       uint64_t cache_bytes);

}  // namespace clara

#endif  // SRC_NIC_DEMAND_H_
