#include "src/ir/cfg.h"

#include <gtest/gtest.h>

#include "src/elements/elements.h"
#include "src/ir/builder.h"
#include "src/lang/lower.h"

namespace clara {
namespace {

// A diamond: entry -> (then|else) -> join.
Module Diamond() {
  Module m;
  m.functions.emplace_back();
  Function& f = m.functions.back();
  IrBuilder b(m, f);
  uint32_t entry = b.NewBlock("entry");
  uint32_t t = b.NewBlock("then");
  uint32_t e = b.NewBlock("else");
  uint32_t j = b.NewBlock("join");
  b.SetInsertPoint(entry);
  Value c = b.Compare(Opcode::kIcmpEq, Value::Const(1), Value::Const(1));
  b.CondBr(c, t, e);
  b.SetInsertPoint(t);
  b.Br(j);
  b.SetInsertPoint(e);
  b.Br(j);
  b.SetInsertPoint(j);
  b.Ret();
  return m;
}

// A loop: entry -> header -> body -> header; header -> exit.
Module Loop() {
  Module m;
  m.functions.emplace_back();
  Function& f = m.functions.back();
  IrBuilder b(m, f);
  uint32_t entry = b.NewBlock("entry");
  uint32_t header = b.NewBlock("header");
  uint32_t body = b.NewBlock("body");
  uint32_t exit = b.NewBlock("exit");
  b.SetInsertPoint(entry);
  b.Br(header);
  b.SetInsertPoint(header);
  Value c = b.Compare(Opcode::kIcmpUlt, Value::Const(0), Value::Const(3));
  b.CondBr(c, body, exit);
  b.SetInsertPoint(body);
  b.Br(header);
  b.SetInsertPoint(exit);
  b.Ret();
  return m;
}

TEST(Cfg, DiamondShape) {
  Module m = Diamond();
  Cfg cfg = BuildCfg(m.functions[0]);
  EXPECT_EQ(cfg.succ[0].size(), 2u);
  EXPECT_EQ(cfg.pred[3].size(), 2u);
  EXPECT_TRUE(cfg.back_edges.empty());
  EXPECT_EQ(cfg.reverse_postorder.front(), 0u);
  for (bool r : cfg.reachable) {
    EXPECT_TRUE(r);
  }
  for (int d : cfg.loop_depth) {
    EXPECT_EQ(d, 0);
  }
}

TEST(Cfg, LoopDetection) {
  Module m = Loop();
  Cfg cfg = BuildCfg(m.functions[0]);
  ASSERT_EQ(cfg.back_edges.size(), 1u);
  EXPECT_EQ(cfg.back_edges[0].first, 2u);   // body
  EXPECT_EQ(cfg.back_edges[0].second, 1u);  // header
  EXPECT_EQ(cfg.loop_depth[1], 1);
  EXPECT_EQ(cfg.loop_depth[2], 1);
  EXPECT_EQ(cfg.loop_depth[0], 0);
  EXPECT_EQ(cfg.loop_depth[3], 0);
}

TEST(Cfg, NaturalLoopMembers) {
  Module m = Loop();
  Cfg cfg = BuildCfg(m.functions[0]);
  auto loop = NaturalLoop(cfg, 2, 1);
  EXPECT_EQ(loop, (std::vector<uint32_t>{1, 2}));
}

TEST(Cfg, ReversePostorderVisitsAllReachable) {
  Module m = Diamond();
  Cfg cfg = BuildCfg(m.functions[0]);
  EXPECT_EQ(cfg.reverse_postorder.size(), 4u);
}

TEST(Cfg, LoweredElementsHaveLoopsWhereExpected) {
  Program dpi = MakeDpi();
  LowerResult lr = LowerProgram(dpi);
  ASSERT_TRUE(lr.ok);
  Cfg cfg = BuildCfg(lr.module.functions[0]);
  EXPECT_FALSE(cfg.back_edges.empty());  // the payload scan loop

  Program anon = MakeAnonIpAddr();
  LowerResult lr2 = LowerProgram(anon);
  ASSERT_TRUE(lr2.ok);
  Cfg cfg2 = BuildCfg(lr2.module.functions[0]);
  EXPECT_TRUE(cfg2.back_edges.empty());  // straight-line element
}

TEST(Cfg, UnreachableBlockFlagged) {
  Module m = Diamond();
  // Add a block nothing branches to.
  m.functions[0].blocks.push_back(BasicBlock{"orphan", -1, {}});
  Instruction ret;
  ret.op = Opcode::kRet;
  m.functions[0].blocks.back().instrs.push_back(ret);
  Cfg cfg = BuildCfg(m.functions[0]);
  EXPECT_FALSE(cfg.reachable[4]);
}

}  // namespace
}  // namespace clara
