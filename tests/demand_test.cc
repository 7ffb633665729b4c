// BuildDemand: fusing backend output, interpreter profile, placement, and
// workload into per-packet NIC resource demands.
#include "src/nic/demand.h"

#include <gtest/gtest.h>

#include "src/core/coalescing.h"
#include "src/core/placement.h"
#include "src/elements/elements.h"
#include "src/nic/backend.h"

namespace clara {
namespace {

struct Profiled {
  std::unique_ptr<NfInstance> nf;
  NicProgram nic;
  WorkloadSpec workload;
};

Profiled ProfileElement(Program p, const WorkloadSpec& w, size_t packets = 1500) {
  Profiled out;
  out.nf = std::make_unique<NfInstance>(std::move(p));
  EXPECT_TRUE(out.nf->ok());
  out.nic = CompileToNic(out.nf->module());
  out.workload = w;
  Trace t = GenerateTrace(w, packets);
  for (auto& pkt : t.packets) {
    out.nf->Process(pkt);
  }
  return out;
}

TEST(Demand, BasicShape) {
  Profiled pr = ProfileElement(MakeAggCounter(), WorkloadSpec::SmallFlows());
  NicConfig cfg;
  NfDemand d = BuildDemand(pr.nf->module(), pr.nic, pr.nf->profile(), pr.workload, cfg);
  EXPECT_GT(d.compute_cycles, 1.0);
  EXPECT_GT(d.pkt_accesses, 0.0);
  ASSERT_EQ(d.state.size(), pr.nf->module().state.size());
  // aggcounter touches its counters once per packet.
  for (const auto& s : d.state) {
    EXPECT_GT(s.accesses_per_pkt, 0.5);
    EXPECT_LT(s.accesses_per_pkt, 4.0);
    EXPECT_EQ(s.region, MemRegion::kEmem);  // default placement
  }
}

TEST(Demand, PlacementOverridesRegion) {
  Profiled pr = ProfileElement(MakeAggCounter(), WorkloadSpec::SmallFlows());
  NicConfig cfg;
  DemandOptions opts;
  opts.placement["counts"] = MemRegion::kImem;
  NfDemand d = BuildDemand(pr.nf->module(), pr.nic, pr.nf->profile(), pr.workload, cfg, opts);
  for (const auto& s : d.state) {
    if (s.name == "counts") {
      EXPECT_EQ(s.region, MemRegion::kImem);
    }
  }
}

TEST(Demand, CoalescingEffectsApplied) {
  Profiled pr = ProfileElement(MakeTcpGen(), WorkloadSpec::SmallFlows());
  NicConfig cfg;
  NfDemand base = BuildDemand(pr.nf->module(), pr.nic, pr.nf->profile(), pr.workload, cfg);
  DemandOptions opts;
  opts.coalescing["src_port"] = CoalesceEffect{0.5, 2.0};
  NfDemand packed = BuildDemand(pr.nf->module(), pr.nic, pr.nf->profile(), pr.workload, cfg, opts);
  double base_acc = 0;
  double packed_acc = 0;
  for (size_t i = 0; i < base.state.size(); ++i) {
    if (base.state[i].name == "src_port") {
      base_acc = base.state[i].accesses_per_pkt;
      packed_acc = packed.state[i].accesses_per_pkt;
    }
  }
  EXPECT_NEAR(packed_acc, base_acc * 0.5, 1e-9);
}

TEST(Demand, AcceleratedVariantShiftsComputeToEngine) {
  WorkloadSpec w = WorkloadSpec::SmallFlows(256);
  Profiled sw = ProfileElement(MakeCmSketch(false), w);
  Profiled hw = ProfileElement(MakeCmSketch(true), w);
  NicConfig cfg;
  NfDemand d_sw = BuildDemand(sw.nf->module(), sw.nic, sw.nf->profile(), w, cfg);
  NfDemand d_hw = BuildDemand(hw.nf->module(), hw.nic, hw.nf->profile(), w, cfg);
  EXPECT_LT(d_hw.compute_cycles, d_sw.compute_cycles);
  EXPECT_GT(d_hw.engine_cycles, d_sw.engine_cycles);
}

TEST(Demand, SmallStructuresCacheWell) {
  Profiled pr = ProfileElement(MakeTcpGen(), WorkloadSpec::SmallFlows());
  NicConfig cfg;
  NfDemand d = BuildDemand(pr.nf->module(), pr.nic, pr.nf->profile(), pr.workload, cfg);
  for (const auto& s : d.state) {
    EXPECT_GT(s.cache_hit_rate, 0.9);  // scalars always fit the cache
  }
}

TEST(Demand, LargeFlowTableCachesPoorlyUnderSmallFlows) {
  Profiled pr = ProfileElement(MakeMazuNat(), WorkloadSpec::SmallFlows());
  NicConfig cfg;
  cfg.emem_cache_bytes = 64 * 1024;  // shrink the cache to force misses
  NfDemand d = BuildDemand(pr.nf->module(), pr.nic, pr.nf->profile(), pr.workload, cfg);
  bool saw_map = false;
  for (const auto& s : d.state) {
    if (s.name == "int_map") {
      saw_map = true;
      EXPECT_LT(s.cache_hit_rate, 0.9);
    }
  }
  EXPECT_TRUE(saw_map);
}

void ExpectSameDemand(const NfDemand& a, const NfDemand& b, const std::string& what) {
  EXPECT_EQ(a.name, b.name) << what;
  EXPECT_EQ(a.compute_cycles, b.compute_cycles) << what;
  EXPECT_EQ(a.engine_cycles, b.engine_cycles) << what;
  EXPECT_EQ(a.pkt_accesses, b.pkt_accesses) << what;
  EXPECT_EQ(a.pkt_words_per_access, b.pkt_words_per_access) << what;
  EXPECT_EQ(a.wire_bytes, b.wire_bytes) << what;
  ASSERT_EQ(a.state.size(), b.state.size()) << what;
  for (size_t i = 0; i < a.state.size(); ++i) {
    const StateDemand& x = a.state[i];
    const StateDemand& y = b.state[i];
    EXPECT_EQ(x.name, y.name) << what;
    EXPECT_EQ(x.accesses_per_pkt, y.accesses_per_pkt) << what << " " << x.name;
    EXPECT_EQ(x.words_per_access, y.words_per_access) << what << " " << x.name;
    EXPECT_EQ(x.size_bytes, y.size_bytes) << what << " " << x.name;
    EXPECT_EQ(x.region, y.region) << what << " " << x.name;
    EXPECT_EQ(x.cache_hit_rate, y.cache_hit_rate) << what << " " << x.name;
  }
}

// The serving engine memoizes DemandCosts of each program's NIC code: for
// every element, workload and placement/coalescing choice, demand built from
// those costs must equal demand built from the full compiled program.
TEST(Demand, CostOnlyProgramBuildsTheSameDemand) {
  NicConfig cfg;
  for (const ElementInfo& e : ElementRegistry()) {
    for (const WorkloadSpec& w : {WorkloadSpec::SmallFlows(), WorkloadSpec::LargeFlows()}) {
      Profiled pr = ProfileElement(e.make(), w, 500);
      NicProgram costs = DemandCosts(pr.nic);
      ASSERT_EQ(costs.blocks.size(), pr.nic.blocks.size()) << e.name;
      for (const NicBlock& b : costs.blocks) {
        EXPECT_TRUE(b.instrs.empty() && b.moves.empty()) << e.name;
      }
      const Module& m = pr.nf->module();
      const NfProfile& profile = pr.nf->profile();
      DemandOptions tuned;
      tuned.placement = PlaceState(m, profile, w, cfg).placement;
      tuned.coalescing = SuggestCoalescing(m, profile).effects;
      for (const DemandOptions& opts : {DemandOptions{}, tuned}) {
        std::string what = e.name + (opts.placement.empty() ? " naive" : " tuned");
        ExpectSameDemand(BuildDemand(m, costs, profile, w, cfg, opts),
                         BuildDemand(m, pr.nic, profile, w, cfg, opts), what);
      }
    }
  }
}

TEST(Demand, WordsPerAccessByKind) {
  StateVar scalar;
  scalar.kind = StateKind::kScalar;
  scalar.elem_type = Type::kI64;
  EXPECT_DOUBLE_EQ(WordsPerAccess(scalar), 2.0);
  StateVar map;
  map.kind = StateKind::kMap;
  map.key_bytes = 8;
  map.value_bytes = 8;
  EXPECT_DOUBLE_EQ(WordsPerAccess(map), 3.0);  // 2 key words + half the value
}

}  // namespace
}  // namespace clara
