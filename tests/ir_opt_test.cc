// IR verifier and optional optimization passes.
#include <gtest/gtest.h>

#include "src/elements/elements.h"
#include "src/ir/builder.h"
#include "src/ir/classify.h"
#include "src/ir/opt.h"
#include "src/ir/verify.h"
#include "src/lang/lower.h"
#include "src/synth/synth.h"

namespace clara {
namespace {

Module OneBlockModule(std::function<void(IrBuilder&)> fill) {
  Module m;
  StateVar sv;
  sv.name = "acc";
  sv.kind = StateKind::kScalar;
  sv.elem_type = Type::kI32;
  m.state.push_back(sv);
  m.functions.emplace_back();
  m.functions.back().name = "simple_action";
  IrBuilder b(m, m.functions.back());
  b.SetInsertPoint(b.NewBlock("entry"));
  fill(b);
  if (!b.BlockTerminated()) {
    b.Ret();
  }
  return m;
}

TEST(Verify, AcceptsAllLoweredElements) {
  for (const auto& info : ElementRegistry()) {
    Program p = info.make();
    LowerResult lr = LowerProgram(p);
    ASSERT_TRUE(lr.ok) << info.name;
    VerifyResult v = VerifyModule(lr.module);
    EXPECT_TRUE(v.ok) << info.name << ": " << (v.errors.empty() ? "" : v.errors[0]);
  }
}

TEST(Verify, AcceptsSynthesizedPrograms) {
  SynthOptions opts;
  opts.profile = UniformProfile();
  for (Program& p : SynthesizeCorpus(30, opts, 123)) {
    LowerResult lr = LowerProgram(p);
    ASSERT_TRUE(lr.ok);
    VerifyResult v = VerifyModule(lr.module);
    EXPECT_TRUE(v.ok) << (v.errors.empty() ? "" : v.errors[0]);
  }
}

TEST(Verify, CatchesMissingTerminator) {
  Module m = OneBlockModule([](IrBuilder& b) {
    b.Binary(Opcode::kAdd, Type::kI32, Value::Const(1), Value::Const(2));
  });
  m.functions[0].blocks[0].instrs.pop_back();  // strip the ret
  VerifyResult v = VerifyModule(m);
  ASSERT_FALSE(v.ok);
  EXPECT_NE(v.errors[0].find("terminator"), std::string::npos);
}

TEST(Verify, CatchesUndefinedRegisterUse) {
  Module m = OneBlockModule([](IrBuilder& b) {
    b.Binary(Opcode::kAdd, Type::kI32, Value::Reg(99), Value::Const(2));
  });
  VerifyResult v = VerifyModule(m);
  ASSERT_FALSE(v.ok);
  EXPECT_NE(v.errors[0].find("undefined register"), std::string::npos);
}

TEST(Verify, CatchesBadBranchTarget) {
  Module m = OneBlockModule([](IrBuilder& b) {});
  Instruction br;
  br.op = Opcode::kBr;
  br.target0 = 42;
  m.functions[0].blocks[0].instrs.back() = br;
  EXPECT_FALSE(VerifyModule(m).ok);
}

TEST(Verify, CatchesBadStateSymbol) {
  Module m = OneBlockModule([](IrBuilder& b) {
    b.LoadState(0, Type::kI32);
  });
  m.functions[0].blocks[0].instrs[0].sym = 7;
  EXPECT_FALSE(VerifyModule(m).ok);
}

TEST(Opt, ConstantFoldsChains) {
  Module m = OneBlockModule([](IrBuilder& b) {
    Value a = b.Binary(Opcode::kAdd, Type::kI32, Value::Const(3), Value::Const(4));
    Value c = b.Binary(Opcode::kMul, Type::kI32, a, Value::Const(10));
    b.StoreState(0, Type::kI32, c);
  });
  OptStats s = OptimizeModule(m);
  EXPECT_EQ(s.folded, 2);
  EXPECT_EQ(s.removed, 2);
  // The store now carries the folded constant 70.
  const auto& instrs = m.functions[0].blocks[0].instrs;
  ASSERT_EQ(instrs.size(), 2u);  // store + ret
  EXPECT_EQ(instrs[0].op, Opcode::kStore);
  ASSERT_TRUE(instrs[0].operands[0].is_const());
  EXPECT_EQ(instrs[0].operands[0].imm, 70);
  EXPECT_TRUE(VerifyModule(m).ok);
}

TEST(Opt, FoldRespectsTypeWidth) {
  Module m = OneBlockModule([](IrBuilder& b) {
    Value a = b.Binary(Opcode::kAdd, Type::kI8, Value::Const(200), Value::Const(100));
    b.StoreState(0, Type::kI32, a);
  });
  OptimizeModule(m);
  const auto& instrs = m.functions[0].blocks[0].instrs;
  ASSERT_TRUE(instrs[0].operands[0].is_const());
  EXPECT_EQ(instrs[0].operands[0].imm, (200 + 100) & 0xff);
}

TEST(Opt, StoreForwardEliminatesStackRoundTrip) {
  // x = ip.src; y = x + 1  becomes a direct use after forwarding + DCE.
  Program p;
  p.body.push_back(Decl("x", Type::kI32, PktField("ip.src")));
  p.body.push_back(Decl("y", Type::kI32, Bin(Opcode::kAdd, Local("x"), Lit(1))));
  LowerResult lr = LowerProgram(p);
  ASSERT_TRUE(lr.ok);
  BlockCounts before = CountFunction(lr.module.functions[0]);
  OptStats s = OptimizeModule(lr.module);
  BlockCounts after = CountFunction(lr.module.functions[0]);
  EXPECT_GT(s.forwarded, 0);
  EXPECT_LT(after.stateless_mem, before.stateless_mem);
  EXPECT_TRUE(VerifyModule(lr.module).ok);
}

TEST(Opt, PreservesStatefulAccesses) {
  // Optimization must never touch state loads/stores (they are the paper's
  // directly-counted quantity).
  for (const char* name : {"aggcounter", "mazunat", "cmsketch"}) {
    Program p = MakeElementByName(name);
    LowerResult lr = LowerProgram(p);
    BlockCounts before = CountFunction(lr.module.functions[0]);
    OptimizeModule(lr.module);
    BlockCounts after = CountFunction(lr.module.functions[0]);
    EXPECT_EQ(before.stateful_mem, after.stateful_mem) << name;
    EXPECT_TRUE(VerifyModule(lr.module).ok) << name;
  }
}

TEST(Opt, ShrinksLoweredElements) {
  // The passes exist and do real work — which is exactly why Clara keeps
  // them OFF for analysis (paper SS3.1).
  int total_removed = 0;
  for (const auto& info : ElementRegistry()) {
    Program p = info.make();
    LowerResult lr = LowerProgram(p);
    OptStats s = OptimizeModule(lr.module);
    total_removed += s.removed;
    EXPECT_TRUE(VerifyModule(lr.module).ok) << info.name;
  }
  EXPECT_GT(total_removed, 100);
}

TEST(Opt, IdempotentAtFixedPoint) {
  Program p = MakeMazuNat();
  LowerResult lr = LowerProgram(p);
  OptimizeModule(lr.module);
  OptStats again = OptimizeModule(lr.module);
  EXPECT_EQ(again.folded + again.forwarded + again.removed, 0);
}

}  // namespace
}  // namespace clara
