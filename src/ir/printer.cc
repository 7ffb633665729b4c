#include "src/ir/printer.h"

#include <sstream>

#include "src/ir/packet_fields.h"

namespace clara {

std::string ToString(const Value& v) {
  switch (v.kind) {
    case Value::Kind::kNone:
      return "<none>";
    case Value::Kind::kConst:
      return std::to_string(v.imm);
    case Value::Kind::kReg:
      return "%" + std::to_string(v.reg);
  }
  return "?";
}

namespace {

std::string MemTarget(const Instruction& i, const Module& m, const Function& f) {
  std::ostringstream os;
  switch (i.space) {
    case AddressSpace::kStack:
      os << "stack:" << f.slots[i.sym].name;
      break;
    case AddressSpace::kPacket:
      os << "pkt:" << kPacketFields[i.sym].name;
      break;
    case AddressSpace::kState:
      os << "state:" << m.state[i.sym].name;
      break;
    case AddressSpace::kNone:
      os << "?";
      break;
  }
  if (i.has_dyn_index) {
    // The dynamic index is the last operand.
    os << "[" << ToString(i.operands.back()) << "]";
  }
  if (i.offset != 0) {
    os << "+" << i.offset;
  }
  return os.str();
}

}  // namespace

std::string ToString(const Instruction& i, const Module& m, const Function& f) {
  std::ostringstream os;
  if (i.result != 0) {
    os << "%" << i.result << " = ";
  }
  os << OpcodeName(i.op);
  switch (i.op) {
    case Opcode::kLoad:
      os << " " << TypeName(i.type) << " " << MemTarget(i, m, f);
      break;
    case Opcode::kStore:
      os << " " << TypeName(i.type) << " " << ToString(i.operands[0]) << ", "
         << MemTarget(i, m, f);
      break;
    case Opcode::kCall: {
      os << " @" << m.apis[i.callee].name << "(";
      for (size_t k = 0; k < i.operands.size(); ++k) {
        if (k > 0) {
          os << ", ";
        }
        os << ToString(i.operands[k]);
      }
      os << ")";
      if (i.type != Type::kVoid) {
        os << " : " << TypeName(i.type);
      }
      break;
    }
    case Opcode::kBr:
      os << " ^" << f.blocks[i.target0].label;
      break;
    case Opcode::kCondBr:
      os << " " << ToString(i.operands[0]) << ", ^" << f.blocks[i.target0].label << ", ^"
         << f.blocks[i.target1].label;
      break;
    case Opcode::kRet:
      break;
    default: {
      os << " " << TypeName(i.type);
      for (size_t k = 0; k < i.operands.size(); ++k) {
        os << (k == 0 ? " " : ", ") << ToString(i.operands[k]);
      }
      break;
    }
  }
  return os.str();
}

std::string ToString(const Function& f, const Module& m) {
  std::ostringstream os;
  os << "func @" << f.name << " {\n";
  for (const auto& s : f.slots) {
    os << "  local " << s.name << " : " << TypeName(s.type) << "\n";
  }
  for (const auto& b : f.blocks) {
    os << "^" << b.label;
    if (b.ast_region >= 0) {
      os << " !region " << b.ast_region;
    }
    os << ":\n";
    for (const auto& i : b.instrs) {
      os << "  " << ToString(i, m, f) << "\n";
    }
  }
  os << "}\n";
  return os.str();
}

std::string ToString(const Module& m) {
  std::ostringstream os;
  os << "module " << m.name << "\n";
  for (const auto& s : m.state) {
    os << "state " << s.name << " : ";
    switch (s.kind) {
      case StateKind::kScalar:
        os << TypeName(s.elem_type);
        break;
      case StateKind::kArray:
        os << TypeName(s.elem_type) << "[" << s.length << "]";
        break;
      case StateKind::kMap:
        os << "map<" << s.key_bytes << "," << s.value_bytes << "," << s.capacity << ">";
        break;
    }
    os << "\n";
  }
  for (const auto& f : m.functions) {
    os << ToString(f, m);
  }
  return os.str();
}

}  // namespace clara
