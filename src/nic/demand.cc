#include "src/nic/demand.h"

#include <algorithm>
#include <cmath>

#include "src/nic/api_profile.h"

namespace clara {

double WordsPerAccess(const StateVar& sv) {
  switch (sv.kind) {
    case StateKind::kScalar:
    case StateKind::kArray:
      return std::max(1.0, std::ceil(BitWidth(sv.elem_type) / 8.0 / 4.0));
    case StateKind::kMap: {
      // A probe touches the key; a hit additionally moves value words.
      double key_words = std::max(1.0, std::ceil(sv.key_bytes / 4.0));
      double value_words = std::ceil(sv.value_bytes / 4.0);
      return key_words + 0.5 * value_words;
    }
  }
  return 1.0;
}

double VarCacheHitRate(const StateVar& sv, const WorkloadSpec& workload,
                       uint64_t cache_bytes) {
  uint64_t size = sv.SizeBytes();
  if (size == 0) {
    return 1.0;
  }
  if (size <= cache_bytes / 4) {
    // Small structures stay resident alongside everything else.
    return 0.98;
  }
  if (sv.kind == StateKind::kMap) {
    uint64_t slot_bytes = std::max<uint64_t>(1, sv.key_bytes + sv.value_bytes);
    uint64_t cache_entries = cache_bytes / slot_bytes;
    return EstimateCacheHitRate(workload, cache_entries);
  }
  double frac = static_cast<double>(cache_bytes) / static_cast<double>(size);
  return std::clamp(frac, 0.0, 1.0);
}

NfDemand BuildDemand(const Module& m, const NicProgram& prog, const NfProfile& profile,
                     const WorkloadSpec& workload, const NicConfig& cfg,
                     const DemandOptions& opts) {
  NfDemand d;
  d.name = m.name;
  d.wire_bytes = workload.pkt_size;
  double pkts = std::max<uint64_t>(1, profile.packets);

  double compute = 0;
  double pkt_accesses = 0;
  double pkt_words = 0;
  const Function& f = m.functions.at(0);
  size_t nblocks = std::min(prog.blocks.size(), f.blocks.size());
  for (size_t b = 0; b < nblocks; ++b) {
    double freq =
        b < profile.block_exec.size() ? profile.block_exec[b] / pkts : 0.0;
    if (freq <= 0) {
      continue;
    }
    const NicBlock& nb = prog.blocks[b];
    compute += freq * nb.issue_cycles;
    pkt_accesses += freq * nb.counts.mem_packet;
    pkt_words += freq * static_cast<double>(nb.counts.pkt_words);
  }
  d.compute_cycles = std::max(1.0, compute);
  d.pkt_accesses = pkt_accesses;
  d.pkt_words_per_access = pkt_accesses > 0 ? pkt_words / pkt_accesses : 2.0;

  // Accelerator engine time from the API-call profile.
  double avg_payload = workload.pkt_size > 54 ? workload.pkt_size - 54.0 : 0.0;
  double engine = 0;
  for (const auto& [api, count] : profile.api_calls) {
    auto p = LookupApiProfile(api);
    if (p.has_value()) {
      engine += count / pkts * (p->engine_cycles + p->engine_cycles_per_payload_byte * avg_payload);
    }
  }
  d.engine_cycles = engine;

  // Per-variable demand under the chosen placement.
  for (size_t v = 0; v < m.state.size(); ++v) {
    const StateVar& sv = m.state[v];
    StateDemand sd;
    sd.name = sv.name;
    sd.accesses_per_pkt =
        (profile.state_reads[v] + profile.state_writes[v]) / pkts;
    sd.words_per_access = WordsPerAccess(sv);
    sd.size_bytes = sv.SizeBytes();
    auto it = opts.placement.find(sv.name);
    sd.region = it != opts.placement.end() ? it->second : MemRegion::kEmem;
    if (sd.region == MemRegion::kEmem) {
      sd.cache_hit_rate = VarCacheHitRate(sv, workload, cfg.emem_cache_bytes);
    }
    auto ce = opts.coalescing.find(sv.name);
    if (ce != opts.coalescing.end()) {
      sd.accesses_per_pkt *= ce->second.access_scale;
      sd.words_per_access *= ce->second.words_scale;
    }
    d.state.push_back(sd);
  }
  return d;
}

NicProgram DemandCosts(NicProgram prog) {
  for (NicBlock& b : prog.blocks) {
    std::vector<NicInstr>().swap(b.instrs);
    std::vector<NicMove>().swap(b.moves);
  }
  return prog;
}

}  // namespace clara
