// The NIC backend ("nfcc") translation rules: instruction selection,
// peepholes, register allocation, and access coalescing.
#include "src/nic/backend.h"

#include <gtest/gtest.h>

#include "src/elements/elements.h"
#include "src/ir/builder.h"
#include "src/ir/packet_fields.h"
#include "src/lang/lower.h"

namespace clara {
namespace {

Module OneBlock(std::function<void(IrBuilder&)> fill, int nslots = 0) {
  Module m;
  StateVar arr;
  arr.name = "arr";
  arr.kind = StateKind::kArray;
  arr.elem_type = Type::kI32;
  arr.length = 64;
  m.state.push_back(arr);
  m.functions.emplace_back();
  IrBuilder b(m, m.functions.back());
  for (int s = 0; s < nslots; ++s) {
    b.AddSlot("s" + std::to_string(s), Type::kI32);
  }
  b.SetInsertPoint(b.NewBlock("entry"));
  fill(b);
  if (!b.BlockTerminated()) {
    b.Ret();
  }
  return m;
}

NicBlockCounts CompileOne(const Module& m, NicBackendOptions opts = NicBackendOptions{}) {
  return CompileToNic(m, opts).blocks[0].counts;
}

TEST(Backend, SimpleAluIsOneInstruction) {
  Module m = OneBlock([](IrBuilder& b) {
    b.Binary(Opcode::kAdd, Type::kI32, Value::Reg(1), Value::Reg(2));
  });
  // add + br(ret)
  EXPECT_EQ(CompileOne(m).compute, 2u);
}

TEST(Backend, LargeImmediatesCostExtra) {
  Module small = OneBlock([](IrBuilder& b) {
    b.Binary(Opcode::kAdd, Type::kI32, Value::Reg(1), Value::Const(10));
  });
  Module mid = OneBlock([](IrBuilder& b) {
    b.Binary(Opcode::kAdd, Type::kI32, Value::Reg(1), Value::Const(5000));
  });
  Module big = OneBlock([](IrBuilder& b) {
    b.Binary(Opcode::kAdd, Type::kI32, Value::Reg(1), Value::Const(0x12345678));
  });
  EXPECT_EQ(CompileOne(mid).compute, CompileOne(small).compute + 1);
  EXPECT_EQ(CompileOne(big).compute, CompileOne(small).compute + 2);
}

TEST(Backend, MulByPow2IsShift) {
  Module pow2 = OneBlock([](IrBuilder& b) {
    b.Binary(Opcode::kMul, Type::kI32, Value::Reg(1), Value::Const(8));
  });
  Module general = OneBlock([](IrBuilder& b) {
    b.Binary(Opcode::kMul, Type::kI32, Value::Reg(1), Value::Reg(2));
  });
  EXPECT_EQ(CompileOne(pow2).compute, 2u);     // alu_shf + br
  EXPECT_EQ(CompileOne(general).compute, 5u);  // 4 mul_step + br
}

TEST(Backend, DivideByNonPow2IsExpensive) {
  Module pow2 = OneBlock([](IrBuilder& b) {
    b.Binary(Opcode::kURem, Type::kI32, Value::Reg(1), Value::Const(256));
  });
  Module odd = OneBlock([](IrBuilder& b) {
    b.Binary(Opcode::kURem, Type::kI32, Value::Reg(1), Value::Const(1000));
  });
  EXPECT_LT(CompileOne(pow2).compute, 4u);
  EXPECT_GT(CompileOne(odd).compute, 15u);  // software divide routine
}

TEST(Backend, CompareFusesWithBranch) {
  // Compare feeding the terminator: alu + bcc. Compare feeding a select is
  // materialized (3 instrs).
  Module fused = OneBlock([](IrBuilder& b) {
    uint32_t other = b.NewBlock("other");
    Value v = b.LoadPacket(static_cast<uint32_t>(FindPacketFieldIndex("ip.src")));
    Value c = b.Compare(Opcode::kIcmpEq, v, Value::Const(5));
    b.CondBr(c, other, other);
    b.SetInsertPoint(other);
    b.Ret();
  });
  Module materialized = OneBlock([](IrBuilder& b) {
    Value v = b.LoadPacket(static_cast<uint32_t>(FindPacketFieldIndex("ip.src")));
    Value c = b.Compare(Opcode::kIcmpEq, v, Value::Const(5));
    b.Select(Type::kI32, c, Value::Const(1), Value::Const(2));
  });
  // ld_field (unaligned ip.src extract) + fused alu + bcc.
  EXPECT_EQ(CompileToNic(fused).blocks[0].counts.compute, 3u);
  // ld_field + cmp(3) + select(3) + br = 8.
  EXPECT_EQ(CompileOne(materialized).compute, 8u);
}

TEST(Backend, ZextAfterLoadIsFree) {
  // zext of a load result costs nothing; zext of an ALU result costs a mask.
  auto loaded = [](bool with_zext) {
    return OneBlock([with_zext](IrBuilder& b) {
      Value v = b.LoadPacket(static_cast<uint32_t>(FindPacketFieldIndex("tcp.sport")));
      if (with_zext) {
        b.Cast(Opcode::kZext, Type::kI32, v);
      }
    });
  };
  auto computed = [](bool with_zext) {
    return OneBlock([with_zext](IrBuilder& b) {
      Value v = b.Binary(Opcode::kAdd, Type::kI8, Value::Const(1), Value::Const(2));
      if (with_zext) {
        b.Cast(Opcode::kZext, Type::kI32, v);
      }
    });
  };
  EXPECT_EQ(CompileOne(loaded(true)).compute, CompileOne(loaded(false)).compute);
  EXPECT_EQ(CompileOne(computed(true)).compute, CompileOne(computed(false)).compute + 1);
}

TEST(Backend, StackSlotsRegisterAllocatedUntilBudget) {
  // Few slots: stack traffic vanishes. Many slots: spills appear as lmem.
  auto make = [](int nslots) {
    return OneBlock(
        [nslots](IrBuilder& b) {
          for (int s = 0; s < nslots; ++s) {
            b.StoreStack(static_cast<uint32_t>(s), Value::Const(1));
            b.LoadStack(static_cast<uint32_t>(s));
          }
        },
        nslots);
  };
  NicBackendOptions opts;
  opts.gpr_budget = 8;
  EXPECT_EQ(CompileOne(make(6), opts).mem_lmem, 0u);
  NicBlockCounts spilled = CompileOne(make(12), opts);
  EXPECT_EQ(spilled.mem_lmem, 8u);  // 4 spilled slots x (store+load)
}

TEST(Backend, PacketWordCoalescing) {
  // ip.src (word 6) then ip.dst (word 7): two reads. Re-reading ip.src is a
  // free ld_field, no new memory access.
  Module m = OneBlock([](IrBuilder& b) {
    uint32_t src = static_cast<uint32_t>(FindPacketFieldIndex("ip.src"));
    uint32_t dst = static_cast<uint32_t>(FindPacketFieldIndex("ip.dst"));
    b.LoadPacket(src);
    b.LoadPacket(dst);
    b.LoadPacket(src);
  });
  NicBlockCounts c = CompileOne(m);
  EXPECT_EQ(c.mem_packet, 2u);
  NicBackendOptions no_coalesce;
  no_coalesce.coalesce_packet = false;
  EXPECT_EQ(CompileOne(m, no_coalesce).mem_packet, 3u);
}

TEST(Backend, SameWordStateLoadsCoalesce) {
  // Two subword fields sharing a 32-bit word arrive in one transfer; the
  // second load becomes a free field extract.
  Module m = OneBlock([](IrBuilder& b) {
    Value idx = b.Binary(Opcode::kAnd, Type::kI32, Value::Reg(1), Value::Const(63));
    b.LoadState(0, Type::kI16, idx, 0);
    b.LoadState(0, Type::kI16, idx, 2);
  });
  NicBlockCounts c = CompileOne(m);
  EXPECT_EQ(c.mem_state, 1u);
  EXPECT_EQ(c.state_words, 1u);
  NicBackendOptions no_coalesce;
  no_coalesce.coalesce_state = false;
  NicBlockCounts c2 = CompileOne(m, no_coalesce);
  EXPECT_EQ(c2.mem_state, 2u);
}

TEST(Backend, AdjacentWordLoadsStayDistinct) {
  // Accesses to different words stay 1:1 with the IR (paper SS3.2: the
  // stateful count corresponds closely to machine code); packing across
  // words is Clara's SS4.4 source-level decision, not the compiler's.
  Module m = OneBlock([](IrBuilder& b) {
    Value idx = b.Binary(Opcode::kAnd, Type::kI32, Value::Reg(1), Value::Const(63));
    b.LoadState(0, Type::kI32, idx, 0);
    b.LoadState(0, Type::kI32, idx, 4);
  });
  EXPECT_EQ(CompileOne(m).mem_state, 2u);
}

TEST(Backend, StateStoresNeverCoalesce) {
  Module m = OneBlock([](IrBuilder& b) {
    Value idx = b.Binary(Opcode::kAnd, Type::kI32, Value::Reg(1), Value::Const(63));
    b.StoreState(0, Type::kI16, Value::Const(1), idx, 0);
    b.StoreState(0, Type::kI16, Value::Const(2), idx, 2);
  });
  EXPECT_EQ(CompileOne(m).mem_state, 2u);
}

TEST(Backend, ApiCallsExpandFromProfiles) {
  Module m = OneBlock([](IrBuilder& b) {
    b.Call("checksum_update", {}, Type::kVoid);
  });
  NicBlockCounts c = CompileOne(m);
  EXPECT_GT(c.api_compute, 100u);  // software checksum is expensive
  EXPECT_GT(c.mem_packet, 0u);
  // API instructions never pollute the core-NF compute count (the LSTM's
  // training label).
  EXPECT_EQ(c.compute, 1u);  // just the ret/br
}

TEST(Backend, AcceleratedApiIsCheapCompute) {
  Module sw = OneBlock([](IrBuilder& b) { b.Call("checksum_update", {}, Type::kVoid); });
  Module hw = OneBlock([](IrBuilder& b) { b.Call("csum_hw", {}, Type::kVoid); });
  EXPECT_LT(CompileOne(hw).api_compute, CompileOne(sw).api_compute / 10);
}

TEST(Backend, BlocksAlignWithIr) {
  Program p = MakeMazuNat();
  LowerResult lr = LowerProgram(p);
  ASSERT_TRUE(lr.ok);
  NicProgram nic = CompileToNic(lr.module);
  EXPECT_EQ(nic.blocks.size(), lr.module.functions[0].blocks.size());
  // Totals are self-consistent.
  NicBlockCounts t = nic.Totals();
  EXPECT_GT(t.compute, 0u);
  EXPECT_GT(t.mem_state, 0u);
}

TEST(Backend, DeterministicOutput) {
  Program p1 = MakeFirewall();
  Program p2 = MakeFirewall();
  LowerResult l1 = LowerProgram(p1);
  LowerResult l2 = LowerProgram(p2);
  NicProgram n1 = CompileToNic(l1.module);
  NicProgram n2 = CompileToNic(l2.module);
  ASSERT_EQ(n1.blocks.size(), n2.blocks.size());
  for (size_t b = 0; b < n1.blocks.size(); ++b) {
    EXPECT_EQ(n1.blocks[b].counts.compute, n2.blocks[b].counts.compute);
    EXPECT_EQ(n1.blocks[b].counts.mem_state, n2.blocks[b].counts.mem_state);
  }
}

TEST(Backend, IssueCyclesPositive) {
  Program p = MakeAggCounter();
  LowerResult lr = LowerProgram(p);
  NicProgram nic = CompileToNic(lr.module);
  for (const auto& blk : nic.blocks) {
    if (!blk.instrs.empty()) {
      EXPECT_GT(blk.issue_cycles, 0.0);
    }
  }
}

}  // namespace
}  // namespace clara
