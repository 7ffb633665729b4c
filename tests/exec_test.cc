// Tests for the NIC ISA executor (src/nic/exec.h) and the differential
// harness (src/nic/diff.h): per-opcode semantics, macro-op expansions
// (mul/div software routines, stack promotion/spilling), and an exhaustive
// opcode-coverage assertion over the executed instruction histogram.
#include "src/nic/exec.h"

#include <array>
#include <functional>
#include <set>
#include <vector>

#include "gtest/gtest.h"
#include "src/ir/builder.h"
#include "src/ir/packet_fields.h"
#include "src/lang/ast.h"
#include "src/lang/interp.h"
#include "src/nic/backend.h"
#include "src/nic/diff.h"
#include "src/synth/synth.h"
#include "src/workload/workload.h"

namespace clara {
namespace {

std::vector<ExprPtr> Args(ExprPtr a) {
  std::vector<ExprPtr> v;
  v.push_back(std::move(a));
  return v;
}

std::vector<Packet> TestTrace(size_t n = 16, uint64_t seed = 99) {
  WorkloadSpec spec;
  spec.seed = seed;
  spec.num_flows = 5;  // few flows => repeated 5-tuples => map hits
  return GenerateTrace(spec, n).packets;
}

// Runs `prog` differentially and expects zero divergence.
void ExpectEquivalent(const Program& prog, size_t packets = 16) {
  DiffResult r = RunDifferential(prog, TestTrace(packets));
  EXPECT_FALSE(r.setup_failed) << r.detail;
  EXPECT_TRUE(r.ok) << r.detail << " (packet " << r.packet_index << ")";
}

// Compiles `prog`'s lowering with `opts`, runs both NfEnv-based executors
// over a trace, compares outputs, and returns the executor's opcode
// histogram.
std::array<uint64_t, 16> RunIrVsNic(const Program& prog,
                                    const NicBackendOptions& opts,
                                    size_t packets = 16) {
  NfInstance inst(CloneProgram(prog), 1);
  EXPECT_TRUE(inst.ok()) << inst.error();
  const Module& m = inst.module();
  const Function& f = m.functions[0];
  NicProgram np = CompileToNic(m, f, opts);

  IrRefInterpreter ir(m, f);
  NicExecutor nic(m, np);
  NfEnv ir_env, nic_env;
  ir_env.InitState(m, &prog.state);
  nic_env.InitState(m, &prog.state);

  for (const Packet& p : TestTrace(packets)) {
    Packet pi = p, pn = p;
    PacketToEnv(pi, ir_env);
    bool ir_ok = ir.RunPacket(ir_env);
    EXPECT_TRUE(ir_ok) << ir.error();
    EnvToPacket(ir_env, pi);
    PacketToEnv(pn, nic_env);
    bool nic_ok = nic.RunPacket(nic_env);
    EXPECT_TRUE(nic_ok) << nic.error();
    EnvToPacket(nic_env, pn);
    if (!ir_ok || !nic_ok) {
      break;
    }
    std::string d = ComparePackets(pi, pn, "ir", "nic");
    EXPECT_EQ(d, "");
  }
  EXPECT_EQ(ir_env.state, nic_env.state);
  return nic.op_histogram();
}

// ---- basic environment plumbing ----

TEST(NfEnvTest, PacketRoundTrip) {
  Packet p = TestTrace(1)[0];
  p.ip_ttl = 7;
  p.tcp_flags = 0x12;
  p.payload[3] = 0xab;
  NfEnv env;
  PacketToEnv(p, env);
  Packet q;
  EnvToPacket(env, q);
  EXPECT_EQ(ComparePackets(p, q, "in", "out"), "");
  EXPECT_EQ(q.ip_ttl, 7);
  EXPECT_EQ(q.payload[3], 0xab);
}

TEST(NfEnvTest, MaskToTypeWidths) {
  EXPECT_EQ(MaskToType(0x1ff, Type::kI8), 0xffu);
  EXPECT_EQ(MaskToType(0x12345, Type::kI16), 0x2345u);
  EXPECT_EQ(MaskToType(~0ULL, Type::kI32), 0xffffffffULL);
  EXPECT_EQ(MaskToType(~0ULL, Type::kI64), ~0ULL);
  EXPECT_EQ(MaskToType(3, Type::kI1), 1u);
}

TEST(NfEnvTest, BarePayloadFieldReadsZero) {
  // The AST interpreter defines a bare pkt.payload reference (no index) as
  // 0; only payload[i] reads prefix bytes.
  Program prog;
  prog.name = "bare_payload";
  prog.body.push_back(AssignPkt("tcp.dport", Bin(Opcode::kOr, PktField("pkt.payload"),
                                                 Lit(0x100, Type::kI16))));
  ExpectEquivalent(prog);
}

// ---- per-opcode differential programs ----

TEST(ExecDiffTest, AluOpsAndImmediates) {
  Program prog;
  prog.name = "alu";
  prog.body.push_back(Decl("a", Type::kI32,
                           Bin(Opcode::kAdd, PktField("ip.src"), Lit(0x12345))));
  prog.body.push_back(Assign("a", Bin(Opcode::kSub, Local("a"), PktField("ip.dst"))));
  prog.body.push_back(Assign("a", Bin(Opcode::kAnd, Local("a"), Lit(0xff00ff))));
  prog.body.push_back(Assign("a", Bin(Opcode::kOr, Local("a"), PktField("tcp.sport"))));
  prog.body.push_back(Assign("a", Bin(Opcode::kXor, Local("a"), Lit(0xdeadbeef))));
  prog.body.push_back(AssignPkt("tcp.seq", Local("a")));
  ExpectEquivalent(prog);
}

TEST(ExecDiffTest, ShiftsConstAndRegister) {
  Program prog;
  prog.name = "shifts";
  prog.body.push_back(Decl("s", Type::kI32,
                           Bin(Opcode::kAnd, PktField("ip.ttl"), Lit(31))));
  prog.body.push_back(Decl("a", Type::kI32, Bin(Opcode::kShl, PktField("ip.src"), Lit(5))));
  prog.body.push_back(Assign("a", Bin(Opcode::kLShr, Local("a"), Lit(3))));
  prog.body.push_back(Assign("a", Bin(Opcode::kShl, Local("a"), Local("s"))));
  prog.body.push_back(Assign("a", Bin(Opcode::kLShr, Local("a"), Local("s"))));
  prog.body.push_back(AssignPkt("tcp.ack", Local("a")));
  ExpectEquivalent(prog);
}

TEST(ExecDiffTest, MulExpansions) {
  Program prog;
  prog.name = "mul";
  // pow2 -> single alu_shf; odd const -> immed + mul_step chain;
  // by-register -> 4-step sequence.
  prog.body.push_back(Decl("a", Type::kI32, Bin(Opcode::kMul, PktField("ip.src"), Lit(8))));
  prog.body.push_back(Decl("b", Type::kI32,
                           Bin(Opcode::kMul, PktField("ip.dst"), Lit(16777619))));
  prog.body.push_back(Decl("c", Type::kI32,
                           Bin(Opcode::kMul, Local("a"), Local("b"))));
  prog.body.push_back(AssignPkt("tcp.seq", Local("c")));
  NicBackendOptions opts;
  auto hist = RunIrVsNic(prog, opts);
  EXPECT_GT(hist[static_cast<size_t>(NicOp::kMulStep)], 0u);
  EXPECT_GT(hist[static_cast<size_t>(NicOp::kImmed)], 0u);
  ExpectEquivalent(prog);
}

TEST(ExecDiffTest, DivRemExpansions) {
  Program prog;
  prog.name = "div";
  prog.body.push_back(Decl("a", Type::kI32,
                           Bin(Opcode::kUDiv, PktField("ip.src"), Lit(64))));
  prog.body.push_back(Decl("b", Type::kI32,
                           Bin(Opcode::kUDiv, PktField("ip.dst"), Lit(77))));
  // Division by a register value that can be zero: both sides define x/0 = 0.
  prog.body.push_back(Decl("z", Type::kI32,
                           Bin(Opcode::kAnd, PktField("ip.tos"), Lit(3))));
  prog.body.push_back(Decl("c", Type::kI32,
                           Bin(Opcode::kUDiv, Local("a"), Local("z"))));
  prog.body.push_back(AssignPkt("tcp.seq",
                                Bin(Opcode::kAdd, Local("b"), Local("c"))));
  ExpectEquivalent(prog);
}

TEST(ExecDiffTest, ComparesFusedAndMaterialized) {
  Program prog;
  prog.name = "cmp";
  // Materialized: the boolean feeds arithmetic.
  prog.body.push_back(Decl("m", Type::kI32,
                           Cmp(Opcode::kIcmpUlt, PktField("tcp.sport"), Lit(1024))));
  prog.body.push_back(AssignPkt("ip.tos", Bin(Opcode::kAdd, Local("m"), Lit(1))));
  // Fused: the compare feeds the branch directly.
  std::vector<StmtPtr> then_b, else_b;
  then_b.push_back(AssignPkt("ip.ttl", Lit(9)));
  else_b.push_back(AssignPkt("ip.ttl", Lit(33)));
  prog.body.push_back(If(Cmp(Opcode::kIcmpUge, PktField("ip.src"), PktField("ip.dst")),
                         std::move(then_b), std::move(else_b)));
  ExpectEquivalent(prog);
}

TEST(ExecDiffTest, CastsAndWidths) {
  Program prog;
  prog.name = "casts";
  prog.body.push_back(Decl("w", Type::kI64,
                           Bin(Opcode::kMul, CastTo(Type::kI64, PktField("ip.src")),
                               Lit(0x100000001ULL, Type::kI64))));
  prog.body.push_back(Decl("n", Type::kI8, CastTo(Type::kI8, Local("w"))));
  prog.body.push_back(AssignPkt("ip.tos", Local("n")));
  prog.body.push_back(AssignPkt("tcp.ack", CastTo(Type::kI32, Local("w"))));
  ExpectEquivalent(prog);
}

TEST(ExecDiffTest, ControlFlowLoops) {
  Program prog;
  prog.name = "loops";
  prog.body.push_back(Decl("acc", Type::kI32, Lit(0)));
  std::vector<StmtPtr> body;
  body.push_back(Assign("acc", Bin(Opcode::kAdd, Local("acc"),
                                   Bin(Opcode::kXor, Local("i"), PktField("ip.src")))));
  prog.body.push_back(For("i", Lit(0), Lit(9), std::move(body)));
  prog.body.push_back(AssignPkt("tcp.seq", Local("acc")));
  ExpectEquivalent(prog);
}

TEST(ExecDiffTest, PacketPayloadAndMetadata) {
  Program prog;
  prog.name = "payload";
  prog.body.push_back(Decl("i", Type::kI32,
                           Bin(Opcode::kAnd, PktField("tcp.sport"), Lit(63))));
  prog.body.push_back(Decl("v", Type::kI32, PayloadAt(Local("i"))));
  prog.body.push_back(AssignPayload(Bin(Opcode::kAdd, Local("i"), Lit(1)),
                                    Bin(Opcode::kXor, Local("v"), Lit(0x5a))));
  prog.body.push_back(AssignPkt("pkt.in_port",
                                Bin(Opcode::kAdd, PktField("pkt.len"),
                                    PktField("pkt.payload_len"))));
  ExpectEquivalent(prog);
}

TEST(ExecDiffTest, StateScalarAndArray) {
  Program prog;
  prog.name = "state";
  StateDecl counter;
  counter.name = "count";
  counter.kind = StateKind::kScalar;
  counter.elem_type = Type::kI64;
  prog.state.push_back(std::move(counter));
  StateDecl table;
  table.name = "tbl";
  table.kind = StateKind::kArray;
  table.elem_type = Type::kI32;
  table.length = 16;
  table.init = {5, 10, 15};
  prog.state.push_back(std::move(table));

  prog.body.push_back(AssignState("count", Bin(Opcode::kAdd, StateRef("count"), Lit(1))));
  prog.body.push_back(Decl("idx", Type::kI32,
                           Bin(Opcode::kAnd, PktField("ip.src"), Lit(15))));
  prog.body.push_back(AssignStateAt("tbl", Local("idx"),
                                    Bin(Opcode::kAdd, StateAt("tbl", Local("idx")),
                                        PktField("ip.ttl"))));
  prog.body.push_back(AssignPkt("tcp.ack", StateAt("tbl", Lit(1))));
  ExpectEquivalent(prog, 32);
}

TEST(ExecDiffTest, MapFindInsertProbes) {
  Program prog;
  prog.name = "map";
  StateDecl map;
  map.name = "flows";
  map.kind = StateKind::kMap;
  map.elem_type = Type::kI32;
  map.key_fields = {Type::kI32, Type::kI32};
  map.value_fields = {{"v0", Type::kI32}};
  map.capacity = 64;
  map.impl = MapImpl::kNicFixedBucket;
  map.slots_per_bucket = 4;
  prog.state.push_back(std::move(map));

  std::vector<ExprPtr> keys;
  keys.push_back(PktField("ip.src"));
  keys.push_back(PktField("ip.dst"));
  prog.body.push_back(Decl("v0", Type::kI32, Lit(0)));
  prog.body.push_back(MapFind("flows", std::move(keys), "hit", {"v0"}));
  std::vector<StmtPtr> then_b;
  std::vector<ExprPtr> k2, vals;
  k2.push_back(PktField("ip.src"));
  k2.push_back(PktField("ip.dst"));
  vals.push_back(Bin(Opcode::kAdd, Local("v0"), Lit(1)));
  then_b.push_back(MapInsert("flows", std::move(k2), std::move(vals)));
  prog.body.push_back(If(Cmp(Opcode::kIcmpEq, PktField("ip.proto"), Lit(6)),
                         std::move(then_b), {}));
  prog.body.push_back(AssignPkt("tcp.seq", Local("v0")));
  ExpectEquivalent(prog, 48);
}

TEST(ExecDiffTest, ApiCallsAndAccelerators) {
  Program prog;
  prog.name = "apis";
  prog.body.push_back(Decl("h", Type::kI32,
                           CallExpr("crc_hash_hw", Args(PktField("ip.src")),
                                    Type::kI32)));
  prog.body.push_back(AssignPkt("tcp.ack", Local("h")));
  prog.body.push_back(Api("checksum_update"));
  prog.body.push_back(Api("ip_header"));
  std::vector<StmtPtr> then_b;
  then_b.push_back(Drop());
  prog.body.push_back(If(Cmp(Opcode::kIcmpEq, Bin(Opcode::kAnd, Local("h"), Lit(7)),
                             Lit(0)),
                         std::move(then_b), {}));
  prog.body.push_back(Send(Lit(2)));
  ExpectEquivalent(prog);
}

// ---- ISA-only semantics (ops the AST surface cannot reach) ----

// Builds a one-block function around `emit`, which receives the builder and
// returns the value to store to tcp.seq.
void RunIsaOnly(const std::function<Value(IrBuilder&)>& emit) {
  Module m;
  m.functions.emplace_back();
  Function& f = m.functions.back();
  f.name = "isa_only";
  f.next_reg = 1;
  IrBuilder b(m, f);
  uint32_t entry = b.NewBlock("entry");
  b.SetInsertPoint(entry);
  Value v = emit(b);
  b.StorePacket(static_cast<uint32_t>(FindPacketFieldIndex("tcp.seq")),
                b.Cast(Opcode::kTrunc, Type::kI32, v));
  b.Ret();

  NicProgram np = CompileToNic(m, f);
  IrRefInterpreter ir(m, f);
  NicExecutor nic(m, np);
  NfEnv ir_env, nic_env;
  ir_env.InitState(m, nullptr);
  nic_env.InitState(m, nullptr);
  for (const Packet& p : TestTrace(8)) {
    Packet pi = p, pn = p;
    PacketToEnv(pi, ir_env);
    ASSERT_TRUE(ir.RunPacket(ir_env)) << ir.error();
    EnvToPacket(ir_env, pi);
    PacketToEnv(pn, nic_env);
    ASSERT_TRUE(nic.RunPacket(nic_env)) << nic.error();
    EnvToPacket(nic_env, pn);
    EXPECT_EQ(ComparePackets(pi, pn, "ir", "nic"), "");
  }
}

TEST(ExecIsaTest, SextSelectAshr) {
  RunIsaOnly([](IrBuilder& b) {
    Value ttl = b.LoadPacket(static_cast<uint32_t>(FindPacketFieldIndex("ip.ttl")));
    Value wide = b.Cast(Opcode::kSext, Type::kI32, ttl);
    Value sh = b.Binary(Opcode::kAShr, Type::kI32, wide, Value::Const(3));
    Value cond = b.Compare(Opcode::kIcmpUgt, sh, Value::Const(4));
    return b.Select(Type::kI32, cond, sh, Value::Const(1234));
  });
}

TEST(ExecIsaTest, AshrSignFill) {
  RunIsaOnly([](IrBuilder& b) {
    Value src = b.LoadPacket(static_cast<uint32_t>(FindPacketFieldIndex("ip.src")));
    Value neg = b.Binary(Opcode::kOr, Type::kI32, src, Value::Const(0x80000000LL));
    return b.Binary(Opcode::kAShr, Type::kI32, neg, Value::Const(7));
  });
}

// ---- stack promotion vs spilling ----

Program LocalHeavyProgram(int locals) {
  Program prog;
  prog.name = "locals";
  for (int i = 0; i < locals; ++i) {
    std::string name = "l" + std::to_string(i);
    ExprPtr init = i == 0 ? PktField("ip.src")
                          : Bin(Opcode::kAdd, Local("l" + std::to_string(i - 1)),
                                Lit(static_cast<uint64_t>(i)));
    prog.body.push_back(Decl(name, Type::kI32, std::move(init)));
  }
  prog.body.push_back(
      AssignPkt("tcp.seq", Local("l" + std::to_string(locals - 1))));
  return prog;
}

TEST(ExecDiffTest, StackPromotionMoves) {
  // Few locals: all promoted to registers; architectural effects ride on the
  // zero-cost move sidecars.
  auto hist = RunIrVsNic(LocalHeavyProgram(6), NicBackendOptions{});
  EXPECT_EQ(hist[static_cast<size_t>(NicOp::kLmemRead)], 0u);
  EXPECT_EQ(hist[static_cast<size_t>(NicOp::kLmemWrite)], 0u);
}

TEST(ExecDiffTest, StackSpillLmemTraffic) {
  // gpr_budget 0 forces every slot to local memory.
  NicBackendOptions opts;
  opts.gpr_budget = 0;
  auto hist = RunIrVsNic(LocalHeavyProgram(6), opts);
  EXPECT_GT(hist[static_cast<size_t>(NicOp::kLmemRead)], 0u);
  EXPECT_GT(hist[static_cast<size_t>(NicOp::kLmemWrite)], 0u);
}

// ---- exhaustive opcode coverage ----

TEST(ExecCoverageTest, EveryEmittableOpcodeExecutes) {
  // Accumulate executed-opcode histograms across handcrafted programs, a
  // synthesized corpus, and a spill-forcing compile. Every opcode the
  // backend can emit must execute at least once; anything else means the
  // executor silently skipped part of the ISA.
  std::array<uint64_t, 16> hist{};
  auto acc = [&hist](const std::array<uint64_t, 16>& h) {
    for (size_t i = 0; i < h.size(); ++i) {
      hist[i] += h[i];
    }
  };

  // Handcrafted: APIs (kCsr + burst kMemRead/kMemWrite), maps, div/mul.
  {
    Program prog;
    prog.name = "cover";
    prog.body.push_back(Decl("h", Type::kI32,
                             CallExpr("crc_hash_hw", Args(PktField("ip.src")),
                                      Type::kI32)));
    prog.body.push_back(Api("checksum_update"));
    prog.body.push_back(Decl("d", Type::kI32,
                             Bin(Opcode::kUDiv, Local("h"), Lit(77))));
    prog.body.push_back(Decl("m", Type::kI32,
                             Bin(Opcode::kMul, Local("d"), Lit(16777619))));
    std::vector<StmtPtr> body;
    body.push_back(Assign("m", Bin(Opcode::kAdd, Local("m"), PayloadAt(Local("i")))));
    prog.body.push_back(For("i", Lit(0), Lit(4), std::move(body)));
    prog.body.push_back(AssignPkt("tcp.seq", Local("m")));
    acc(RunIrVsNic(prog, NicBackendOptions{}));
  }
  {
    NicBackendOptions spill;
    spill.gpr_budget = 0;
    acc(RunIrVsNic(LocalHeavyProgram(5), spill));
  }

  // Synthesized corpus sweep (all three profiles).
  const char* profiles[] = {"default", "uniform", "generic"};
  for (int i = 0; i < 12; ++i) {
    SynthOptions opts;
    if (i % 3 == 1) {
      opts.profile = UniformProfile();
    } else if (i % 3 == 2) {
      opts.profile = GenericProfile();
    }
    Rng rng(1000 + i);
    Program prog = SynthesizeProgram(rng, opts, i);
    static_cast<void>(profiles);
    acc(RunIrVsNic(prog, NicBackendOptions{}, 8));
  }

  const NicOp emittable[] = {
      NicOp::kAlu,      NicOp::kAluShf,  NicOp::kImmed,    NicOp::kMulStep,
      NicOp::kLdField,  NicOp::kBr,      NicOp::kBcc,      NicOp::kCsr,
      NicOp::kMemRead,  NicOp::kMemWrite, NicOp::kLmemRead, NicOp::kLmemWrite,
  };
  for (NicOp op : emittable) {
    EXPECT_GT(hist[static_cast<size_t>(op)], 0u)
        << "opcode never executed: " << NicOpName(op);
  }
}

// ---- regression corpus sanity (the committed .case files assert zero
// divergence; this guards the in-tree differential entry point itself) ----

TEST(ExecDiffTest, SynthesizedSweepIsClean) {
  for (int i = 0; i < 8; ++i) {
    Rng rng(4242 + i);
    SynthOptions opts;
    Program prog = SynthesizeProgram(rng, opts, i);
    DiffResult r = RunDifferential(prog, TestTrace(12, 7 + i));
    EXPECT_FALSE(r.setup_failed) << r.detail;
    EXPECT_TRUE(r.ok) << "iter " << i << ": " << r.detail;
  }
}

}  // namespace
}  // namespace clara
