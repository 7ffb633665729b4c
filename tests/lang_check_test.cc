#include "src/lang/check.h"

#include <gtest/gtest.h>

#include "src/lang/printer.h"

namespace clara {
namespace {

TEST(Check, TypesPacketFields) {
  Program p;
  p.name = "t";
  p.body.push_back(Decl("x", Type::kI32, PktField("ip.src")));
  p.body.push_back(Decl("y", Type::kI16, PktField("tcp.sport")));
  CheckResult r = CheckProgram(p);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(p.body[0]->e0->type, Type::kI32);
  EXPECT_EQ(p.body[1]->e0->type, Type::kI16);
  ASSERT_EQ(r.locals.size(), 2u);
  EXPECT_EQ(r.locals[0].name, "x");
}

TEST(Check, BinaryPromotesToWiderOperand) {
  Program p;
  p.body.push_back(
      Decl("w", Type::kI64, Bin(Opcode::kAdd, PktField("pkt.ts"), PktField("ip.src"))));
  ASSERT_TRUE(CheckProgram(p).ok);
  EXPECT_EQ(p.body[0]->e0->type, Type::kI64);  // i64 + i32 -> i64
}

TEST(Check, CompareYieldsI1) {
  Program p;
  p.body.push_back(If(Cmp(Opcode::kIcmpEq, PktField("ip.proto"), Lit(6)), {}));
  ASSERT_TRUE(CheckProgram(p).ok);
  EXPECT_EQ(p.body[0]->e0->type, Type::kI1);
}

TEST(Check, UndeclaredLocalFails) {
  Program p;
  p.body.push_back(Assign("ghost", Lit(1)));
  CheckResult r = CheckProgram(p);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.errors[0].find("ghost"), std::string::npos);
}

TEST(Check, UnknownStateFails) {
  Program p;
  p.body.push_back(AssignState("nope", Lit(1)));
  EXPECT_FALSE(CheckProgram(p).ok);
}

TEST(Check, UnknownPacketFieldFails) {
  Program p;
  p.body.push_back(Decl("x", Type::kI32, PktField("ip.bogus")));
  EXPECT_FALSE(CheckProgram(p).ok);
}

TEST(Check, WriteToReadOnlyPacketFieldFails) {
  for (const char* field : {"pkt.len", "pkt.payload_len", "pkt.ts", "pkt.payload"}) {
    Program p;
    p.body.push_back(AssignPkt(field, Lit(1)));
    CheckResult r = CheckProgram(p);
    ASSERT_FALSE(r.ok) << field;
    EXPECT_NE(r.errors[0].find("read-only"), std::string::npos) << r.errors[0];
    EXPECT_NE(r.errors[0].find(field), std::string::npos) << r.errors[0];
  }
}

TEST(Check, WriteToUnknownPacketFieldFails) {
  Program p;
  p.body.push_back(AssignPkt("ip.bogus", Lit(1)));
  CheckResult r = CheckProgram(p);
  ASSERT_FALSE(r.ok);
  EXPECT_NE(r.errors[0].find("unknown packet field"), std::string::npos);
}

TEST(Check, WritableFieldsAcceptWrites) {
  // Header fields and the pkt.in_port metadata are assignable; reading the
  // read-only metadata stays legal.
  Program p;
  p.body.push_back(AssignPkt("ip.ttl", Lit(3)));
  p.body.push_back(AssignPkt("pkt.in_port", PktField("pkt.len")));
  p.body.push_back(AssignPkt("tcp.seq", PktField("pkt.ts")));
  EXPECT_TRUE(CheckProgram(p).ok);
}

TEST(Check, WrongStateKindFails) {
  Program p;
  StateDecl arr;
  arr.name = "a";
  arr.kind = StateKind::kArray;
  arr.elem_type = Type::kI32;
  arr.length = 4;
  p.state.push_back(arr);
  p.body.push_back(AssignState("a", Lit(1)));  // scalar op on an array
  EXPECT_FALSE(CheckProgram(p).ok);
}

TEST(Check, MapKeyArityValidated) {
  Program p;
  StateDecl m;
  m.name = "m";
  m.kind = StateKind::kMap;
  m.key_fields = {Type::kI32, Type::kI32};
  m.value_fields = {{"v", Type::kI32}};
  m.capacity = 64;
  p.state.push_back(m);
  std::vector<ExprPtr> one_key;
  one_key.push_back(PktField("ip.src"));
  p.body.push_back(MapFind("m", std::move(one_key), "found", {"v"}));
  EXPECT_FALSE(CheckProgram(p).ok);
}

TEST(Check, MapFindImplicitlyDeclaresOutputs) {
  Program p;
  StateDecl m;
  m.name = "m";
  m.kind = StateKind::kMap;
  m.key_fields = {Type::kI32};
  m.value_fields = {{"v", Type::kI16}};
  m.capacity = 64;
  p.state.push_back(m);
  std::vector<ExprPtr> keys;
  keys.push_back(PktField("ip.src"));
  p.body.push_back(MapFind("m", std::move(keys), "found", {"out_v"}));
  p.body.push_back(Assign("out_v", Lit(1)));  // usable afterwards
  CheckResult r = CheckProgram(p);
  ASSERT_TRUE(r.ok);
  bool found_out = false;
  for (const auto& l : r.locals) {
    if (l.name == "out_v") {
      EXPECT_EQ(l.type, Type::kI16);  // typed from the map's value field
      found_out = true;
    }
  }
  EXPECT_TRUE(found_out);
}

TEST(Check, ForLoopDeclaresIterationVariable) {
  Program p;
  p.body.push_back(For("i", Lit(0), Lit(4), {}));
  p.body.push_back(Decl("x", Type::kI32, Local("i")));
  EXPECT_TRUE(CheckProgram(p).ok);
}

TEST(Printer, RendersPseudoClick) {
  Program p;
  p.name = "mini";
  p.state.push_back([] {
    StateDecl d;
    d.name = "cnt";
    d.kind = StateKind::kScalar;
    d.elem_type = Type::kI64;
    return d;
  }());
  p.body.push_back(AssignState("cnt", Bin(Opcode::kAdd, StateRef("cnt"), Lit(1))));
  p.body.push_back(Send(Lit(0)));
  std::string src = ToSource(p);
  EXPECT_NE(src.find("class mini : public Element"), std::string::npos);
  EXPECT_NE(src.find("cnt = (cnt + 1);"), std::string::npos);
  EXPECT_NE(src.find("pkt->send(0);"), std::string::npos);
  EXPECT_GT(SourceLineCount(p), 4);
}

}  // namespace
}  // namespace clara
