// Vocabulary compaction (§3.2): operand abstraction, constant bucketing,
// header-field preservation, and one-hot/bag-of-words encoding.
#include "src/ir/vocab.h"

#include <gtest/gtest.h>

#include "src/elements/elements.h"
#include "src/ir/builder.h"
#include "src/ir/packet_fields.h"
#include "src/lang/lower.h"

namespace clara {
namespace {

Module OneBlock(std::function<void(IrBuilder&)> fill) {
  Module m;
  m.functions.emplace_back();
  IrBuilder b(m, m.functions.back());
  b.SetInsertPoint(b.NewBlock("entry"));
  fill(b);
  b.Ret();
  return m;
}

TEST(Vocab, AbstractsOperandsToKinds) {
  Module m = OneBlock([](IrBuilder& b) {
    Value x = b.LoadPacket(static_cast<uint32_t>(FindPacketFieldIndex("ip.src")));
    b.Binary(Opcode::kAdd, Type::kI32, x, Value::Const(2));
    b.Binary(Opcode::kAdd, Type::kI32, x, Value::Const(70000));
  });
  auto words = AbstractBlock(m.functions[0].blocks[0], m);
  EXPECT_EQ(words[0], "load.pkt i32 ip.src");  // field names preserved
  EXPECT_EQ(words[1], "add i32 VAR C8");       // small constant bucket
  EXPECT_EQ(words[2], "add i32 VAR C32");      // large constant bucket
  EXPECT_EQ(words[3], "ret");
}

TEST(Vocab, SameShapeDifferentConstantsShareWords) {
  Module m = OneBlock([](IrBuilder& b) {
    b.Binary(Opcode::kXor, Type::kI32, Value::Const(3), Value::Const(5));
    b.Binary(Opcode::kXor, Type::kI32, Value::Const(9), Value::Const(200));
  });
  auto words = AbstractBlock(m.functions[0].blocks[0], m);
  EXPECT_EQ(words[0], words[1]);
}

TEST(Vocab, RawModeKeepsConstants) {
  Module m = OneBlock([](IrBuilder& b) {
    b.Binary(Opcode::kXor, Type::kI32, Value::Const(3), Value::Const(5));
    b.Binary(Opcode::kXor, Type::kI32, Value::Const(9), Value::Const(200));
  });
  auto words = AbstractBlock(m.functions[0].blocks[0], m, AbstractionMode::kRaw);
  EXPECT_NE(words[0], words[1]);
}

TEST(Vocab, FrozenVocabMapsUnknownToZero) {
  Vocabulary v;
  Module m = OneBlock([](IrBuilder& b) {
    b.Binary(Opcode::kAdd, Type::kI32, Value::Const(1), Value::Const(2));
  });
  v.Encode(m.functions[0].blocks[0], m);
  v.Freeze();
  Module m2 = OneBlock([](IrBuilder& b) {
    b.Binary(Opcode::kMul, Type::kI64, Value::Const(1), Value::Const(2));  // unseen word
  });
  auto tokens = v.Encode(m2.functions[0].blocks[0], m2);
  EXPECT_EQ(tokens[0], 0);  // <unk>
}

TEST(Vocab, CompactionKeepsVocabularySmall) {
  // Paper: a few hundred distinct words across a whole corpus.
  Vocabulary compact;
  Vocabulary raw;
  for (const auto& info : ElementRegistry()) {
    Program p = info.make();
    LowerResult lr = LowerProgram(p);
    ASSERT_TRUE(lr.ok) << info.name;
    for (const auto& blk : lr.module.functions[0].blocks) {
      compact.Encode(blk, lr.module, AbstractionMode::kCompacted);
      raw.Encode(blk, lr.module, AbstractionMode::kRaw);
    }
  }
  EXPECT_LT(compact.size(), 400);
  EXPECT_GT(raw.size(), compact.size() * 2);  // the ablation blows up
}

TEST(Vocab, HistogramNormalized) {
  Vocabulary v;
  v.Intern("a");
  v.Intern("b");
  std::vector<int> tokens = {1, 1, 2, 2};
  auto h = v.Histogram(tokens);
  EXPECT_DOUBLE_EQ(h[1], 0.5);
  EXPECT_DOUBLE_EQ(h[2], 0.5);
  EXPECT_DOUBLE_EQ(h[0], 0.0);
}

}  // namespace
}  // namespace clara
