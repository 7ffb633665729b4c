#include "src/ir/builder.h"

#include <cassert>
#include <utility>

#include "src/ir/packet_fields.h"

namespace clara {

uint32_t IrBuilder::NewBlock(const std::string& label, int ast_region) {
  BasicBlock b;
  b.label = label;
  b.ast_region = ast_region;
  func_.blocks.push_back(std::move(b));
  return static_cast<uint32_t>(func_.blocks.size() - 1);
}

uint32_t IrBuilder::AddSlot(const std::string& name, Type type) {
  func_.slots.push_back(StackSlot{name, type});
  return static_cast<uint32_t>(func_.slots.size() - 1);
}

int IrBuilder::FindSlot(const std::string& name) const {
  for (size_t i = 0; i < func_.slots.size(); ++i) {
    if (func_.slots[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

Instruction& IrBuilder::Append(Instruction instr) {
  assert(insert_ < func_.blocks.size());
  auto& blk = func_.blocks[insert_];
  blk.instrs.push_back(std::move(instr));
  return blk.instrs.back();
}

bool IrBuilder::BlockTerminated() const {
  const auto& blk = func_.blocks[insert_];
  return !blk.instrs.empty() && IsTerminator(blk.instrs.back().op);
}

Value IrBuilder::Binary(Opcode op, Type type, Value a, Value b) {
  Instruction i;
  i.op = op;
  i.type = type;
  i.result = NextReg();
  i.operands = {a, b};
  Append(std::move(i));
  return Value::Reg(func_.next_reg - 1);
}

Value IrBuilder::Compare(Opcode op, Value a, Value b) {
  Instruction i;
  i.op = op;
  i.type = Type::kI1;
  i.result = NextReg();
  i.operands = {a, b};
  Append(std::move(i));
  return Value::Reg(func_.next_reg - 1);
}

Value IrBuilder::Cast(Opcode op, Type to, Value v) {
  Instruction i;
  i.op = op;
  i.type = to;
  i.result = NextReg();
  i.operands = {v};
  Append(std::move(i));
  return Value::Reg(func_.next_reg - 1);
}

Value IrBuilder::Select(Type type, Value cond, Value if_true, Value if_false) {
  Instruction i;
  i.op = Opcode::kSelect;
  i.type = type;
  i.result = NextReg();
  i.operands = {cond, if_true, if_false};
  Append(std::move(i));
  return Value::Reg(func_.next_reg - 1);
}

Value IrBuilder::LoadStack(uint32_t slot) {
  Instruction i;
  i.op = Opcode::kLoad;
  i.type = func_.slots[slot].type;
  i.result = NextReg();
  i.space = AddressSpace::kStack;
  i.sym = slot;
  Append(std::move(i));
  return Value::Reg(func_.next_reg - 1);
}

void IrBuilder::StoreStack(uint32_t slot, Value v) {
  Instruction i;
  i.op = Opcode::kStore;
  i.type = func_.slots[slot].type;
  i.space = AddressSpace::kStack;
  i.sym = slot;
  i.operands = {v};
  Append(std::move(i));
}

Value IrBuilder::LoadPacket(uint32_t field, Value dyn_index) {
  Instruction i;
  i.op = Opcode::kLoad;
  i.type = kPacketFields[field].type;
  i.result = NextReg();
  i.space = AddressSpace::kPacket;
  i.sym = field;
  if (dyn_index.kind != Value::Kind::kNone) {
    i.has_dyn_index = true;
    i.operands.push_back(dyn_index);
  }
  Append(std::move(i));
  return Value::Reg(func_.next_reg - 1);
}

void IrBuilder::StorePacket(uint32_t field, Value v, Value dyn_index) {
  Instruction i;
  i.op = Opcode::kStore;
  i.type = kPacketFields[field].type;
  i.space = AddressSpace::kPacket;
  i.sym = field;
  i.operands = {v};
  if (dyn_index.kind != Value::Kind::kNone) {
    i.has_dyn_index = true;
    i.operands.push_back(dyn_index);
  }
  Append(std::move(i));
}

Value IrBuilder::LoadState(uint32_t sym, Type type, Value dyn_index, int32_t offset) {
  Instruction i;
  i.op = Opcode::kLoad;
  i.type = type;
  i.result = NextReg();
  i.space = AddressSpace::kState;
  i.sym = sym;
  i.offset = offset;
  if (dyn_index.kind != Value::Kind::kNone) {
    i.has_dyn_index = true;
    i.operands.push_back(dyn_index);
  }
  Append(std::move(i));
  return Value::Reg(func_.next_reg - 1);
}

void IrBuilder::StoreState(uint32_t sym, Type type, Value v, Value dyn_index, int32_t offset) {
  Instruction i;
  i.op = Opcode::kStore;
  i.type = type;
  i.space = AddressSpace::kState;
  i.sym = sym;
  i.offset = offset;
  i.operands = {v};
  if (dyn_index.kind != Value::Kind::kNone) {
    i.has_dyn_index = true;
    i.operands.push_back(dyn_index);
  }
  Append(std::move(i));
}

Value IrBuilder::Call(const std::string& api, std::vector<Value> args, Type result) {
  Instruction i;
  i.op = Opcode::kCall;
  i.type = result;
  i.callee = module_.InternApi(api, static_cast<uint8_t>(args.size()), result);
  i.operands = std::move(args);
  if (result != Type::kVoid) {
    i.result = NextReg();
  }
  Append(std::move(i));
  return result != Type::kVoid ? Value::Reg(func_.next_reg - 1) : Value{};
}

void IrBuilder::Br(uint32_t target) {
  Instruction i;
  i.op = Opcode::kBr;
  i.target0 = target;
  Append(std::move(i));
}

void IrBuilder::CondBr(Value cond, uint32_t if_true, uint32_t if_false) {
  Instruction i;
  i.op = Opcode::kCondBr;
  i.operands = {cond};
  i.target0 = if_true;
  i.target1 = if_false;
  Append(std::move(i));
}

void IrBuilder::Ret() {
  Instruction i;
  i.op = Opcode::kRet;
  Append(std::move(i));
}

}  // namespace clara
