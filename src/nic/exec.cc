#include "src/nic/exec.h"

#include <algorithm>
#include <cstring>

#include "src/lang/interp.h"
#include "src/nf/checksum.h"

namespace clara {
namespace {

// Step budgets. Generated programs have strictly bounded loops (for-loops
// with literal bounds, probe loops bounded by bucket size), so these only
// trip on malformed input.
constexpr uint64_t kIrStepBudget = 4u * 1000 * 1000;
constexpr uint64_t kNicStepBudget = 40u * 1000 * 1000;

uint64_t LoadLe(const uint8_t* p, int bytes) {
  uint64_t v = 0;
  for (int i = 0; i < bytes; ++i) {
    v |= static_cast<uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

void StoreLe(uint8_t* p, int bytes, uint64_t v) {
  for (int i = 0; i < bytes; ++i) {
    p[i] = static_cast<uint8_t>(v >> (8 * i));
  }
}

}  // namespace

uint64_t MaskToType(uint64_t v, Type t) {
  switch (t) {
    case Type::kVoid: return 0;
    case Type::kI1: return v & 1;
    case Type::kI8: return v & 0xff;
    case Type::kI16: return v & 0xffff;
    case Type::kI32: return v & 0xffffffffULL;
    case Type::kI64: return v;
  }
  return v;
}

void NfEnv::InitState(const Module& m, const std::vector<StateDecl>* decls) {
  module = &m;
  state.assign(m.state.size(), {});
  for (size_t i = 0; i < m.state.size(); ++i) {
    const StateVar& sv = m.state[i];
    state[i].assign(static_cast<size_t>(sv.ElementCount()) * sv.ElementBytes(), 0);
    if (decls == nullptr) {
      continue;
    }
    // Initial contents, mirroring NfInstance::ResetState.
    const StateDecl* d = nullptr;
    for (const auto& sd : *decls) {
      if (sd.name == sv.name) {
        d = &sd;
        break;
      }
    }
    if (d == nullptr || sv.kind == StateKind::kMap) {
      continue;
    }
    int eb = static_cast<int>(sv.ElementBytes());
    size_t n = sv.kind == StateKind::kScalar ? 1 : sv.length;
    for (size_t k = 0; k < d->init.size() && k < n; ++k) {
      StoreLe(state[i].data() + k * eb, eb, d->init[k]);
    }
  }
  flow_cache.clear();
}

uint64_t NfEnv::StateRead(uint32_t sym, uint64_t elem, int32_t off, int bits) const {
  if (sym >= state.size() || module == nullptr) {
    return 0;
  }
  const StateVar& sv = module->state[sym];
  uint32_t count = sv.ElementCount();
  uint32_t eb = sv.ElementBytes();
  size_t base = static_cast<size_t>(elem % count) * eb + static_cast<size_t>(off);
  int bytes = bits / 8;
  if (base + bytes > state[sym].size()) {
    return 0;
  }
  return LoadLe(state[sym].data() + base, bytes);
}

void NfEnv::StateWrite(uint32_t sym, uint64_t elem, int32_t off, int bits, uint64_t v) {
  if (sym >= state.size() || module == nullptr) {
    return;
  }
  const StateVar& sv = module->state[sym];
  uint32_t count = sv.ElementCount();
  uint32_t eb = sv.ElementBytes();
  size_t base = static_cast<size_t>(elem % count) * eb + static_cast<size_t>(off);
  int bytes = bits / 8;
  if (base + bytes > state[sym].size()) {
    return;
  }
  StoreLe(state[sym].data() + base, bytes, v);
}

uint64_t NfEnv::PacketRead(uint32_t sym, uint64_t dyn, bool has_dyn) const {
  if (sym >= kNumPacketFields) {
    return 0;
  }
  const PacketFieldDef& f = kPacketFields[sym];
  switch (f.kind) {
    case PacketFieldKind::kHeader:
      return LoadLe(pkt.data() + f.wire_offset, f.packet_bytes);
    case PacketFieldKind::kMeta:
      return LoadPacketMember(meta, f);
    case PacketFieldKind::kPayload:
      // A bare pkt.payload field reference (no byte index) reads as 0 in the
      // AST interpreter; only payload[i] touches the prefix bytes.
      return has_dyn ? pkt[f.wire_offset + (dyn % kMaxPayloadPrefix)] : 0;
  }
  return 0;
}

void NfEnv::PacketWrite(uint32_t sym, uint64_t dyn, uint64_t v, bool has_dyn) {
  if (sym >= kNumPacketFields) {
    return;
  }
  const PacketFieldDef& f = kPacketFields[sym];
  if (f.kind == PacketFieldKind::kPayload) {
    if (has_dyn) {
      pkt[f.wire_offset + (dyn % kMaxPayloadPrefix)] = static_cast<uint8_t>(v);
    }
    return;
  }
  if (!f.writable) {
    return;  // read-only metadata, like the AST interpreter
  }
  if (f.kind == PacketFieldKind::kMeta) {
    StorePacketMember(meta, f, v);
  } else {
    StoreLe(pkt.data() + f.wire_offset, f.packet_bytes, v);
  }
}

uint64_t NfEnv::CallApi(const std::string& name, const std::vector<uint64_t>& args) {
  switch (NfApiByName(name)) {
    case NfApi::kNone:
      return 0;
    case NfApi::kChecksum: {
      Packet p;
      EnvToPacket(*this, p);
      uint16_t csum = Ipv4HeaderChecksum(p);
      constexpr PacketFieldDef kCsum = kPacketFields[FindPacketFieldIndex("ip.csum")];
      StoreLe(pkt.data() + kCsum.wire_offset, kCsum.packet_bytes, csum);
      return csum;
    }
    case NfApi::kSend:
      verdict = Packet::Verdict::kSent;
      out_port = args.empty() ? 0 : static_cast<uint16_t>(args[0]);
      ++sends;
      return 0;
    case NfApi::kDrop:
      verdict = Packet::Verdict::kDropped;
      ++drops;
      return 0;
    case NfApi::kCrcHash: {
      uint64_t key = args.empty() ? 0 : args[0];
      uint8_t bytes[8];
      StoreLe(bytes, 8, key);
      return Crc32Bitwise(bytes, 8);
    }
    case NfApi::kCrc32: {
      int len = meta.PayloadPrefixLen();
      if (!args.empty() && args[0] < static_cast<uint64_t>(len)) {
        len = static_cast<int>(args[0]);
      }
      return Crc32Bitwise(pkt.data() + kWireHeaderBytes, static_cast<size_t>(len));
    }
    case NfApi::kLpm:
      if (lpm != nullptr && !args.empty()) {
        auto hop = lpm->Lookup(static_cast<uint32_t>(args[0]));
        return hop.has_value() ? *hop + 1 : 0;
      }
      return 0;
    case NfApi::kFlowCacheGet: {
      auto it = flow_cache.find(args.empty() ? 0 : args[0]);
      return it == flow_cache.end() ? 0 : it->second + 1;
    }
    case NfApi::kFlowCachePut:
      if (args.size() >= 2) {
        flow_cache[args[0]] = args[1];
      }
      return 0;
    case NfApi::kRand:
      return rng.NextU64() & 0xffffffffULL;
  }
  return 0;
}

void PacketToEnv(const Packet& p, NfEnv& env) {
  env.pkt.fill(0);
  for (const PacketFieldDef& f : kPacketFields) {
    switch (f.kind) {
      case PacketFieldKind::kHeader:
        StoreLe(env.pkt.data() + f.wire_offset, f.packet_bytes, LoadPacketMember(p, f));
        break;
      case PacketFieldKind::kMeta:
        StorePacketMember(env.meta, f, LoadPacketMember(p, f));
        break;
      case PacketFieldKind::kPayload:
        std::memcpy(env.pkt.data() + f.wire_offset, p.payload.data(), kMaxPayloadPrefix);
        break;
    }
  }
  env.verdict = Packet::Verdict::kPending;
  env.out_port = p.out_port;
}

void EnvToPacket(const NfEnv& env, Packet& p) {
  for (const PacketFieldDef& f : kPacketFields) {
    switch (f.kind) {
      case PacketFieldKind::kHeader:
        StorePacketMember(p, f, LoadLe(env.pkt.data() + f.wire_offset, f.packet_bytes));
        break;
      case PacketFieldKind::kMeta:
        StorePacketMember(p, f, LoadPacketMember(env.meta, f));
        break;
      case PacketFieldKind::kPayload:
        std::memcpy(p.payload.data(), env.pkt.data() + f.wire_offset, kMaxPayloadPrefix);
        break;
    }
  }
  p.verdict = env.verdict;
  p.out_port = env.out_port;
}

// ---- IR reference interpreter ----

namespace {

uint64_t ArithShiftRight(uint64_t a, uint64_t sa, int w) {
  if (sa == 0) {
    return a;
  }
  uint64_t r = a >> sa;
  if (w > 0 && ((a >> (w - 1)) & 1) != 0) {
    r |= ~((1ULL << (w - static_cast<int>(sa))) - 1);
  }
  return r;
}

uint64_t SignExtendFrom(uint64_t v, int src_bits) {
  if (src_bits <= 0 || src_bits >= 64) {
    return v;
  }
  if (((v >> (src_bits - 1)) & 1) != 0) {
    return v | ~((1ULL << src_bits) - 1);
  }
  return v;
}

bool EvalCc(NicCc cc, uint64_t a, uint64_t b) {
  switch (cc) {
    case NicCc::kEq: return a == b;
    case NicCc::kNe: return a != b;
    case NicCc::kUlt: return a < b;
    case NicCc::kUle: return a <= b;
    case NicCc::kUgt: return a > b;
    case NicCc::kUge: return a >= b;
    case NicCc::kNone: return false;
  }
  return false;
}

}  // namespace

IrRefInterpreter::IrRefInterpreter(const Module& m, const Function& f) : m_(m), f_(f) {
  for (const auto& b : f.blocks) {
    for (const auto& i : b.instrs) {
      if (i.result != 0) {
        reg_types_[i.result] = i.type;
      }
    }
  }
}

uint64_t IrRefInterpreter::Eval(const Value& v) const {
  if (v.is_const()) {
    return static_cast<uint64_t>(v.imm);
  }
  if (v.is_reg() && v.reg < regs_.size()) {
    return regs_[v.reg];
  }
  return 0;
}

bool IrRefInterpreter::RunPacket(NfEnv& env) {
  regs_.assign(f_.next_reg, 0);
  slots_.assign(f_.slots.size(), 0);
  steps_ = 0;
  if (f_.blocks.empty()) {
    return true;
  }
  size_t b = 0;
  while (true) {
    const BasicBlock& blk = f_.blocks[b];
    bool jumped = false;
    for (const Instruction& i : blk.instrs) {
      if (++steps_ > kIrStepBudget) {
        error_ = "ir step budget exhausted";
        return false;
      }
      switch (i.op) {
        case Opcode::kAdd:
        case Opcode::kSub:
        case Opcode::kMul:
        case Opcode::kUDiv:
        case Opcode::kURem:
        case Opcode::kAnd:
        case Opcode::kOr:
        case Opcode::kXor:
        case Opcode::kShl:
        case Opcode::kLShr:
        case Opcode::kAShr: {
          uint64_t a = Eval(i.operands[0]);
          uint64_t c = Eval(i.operands[1]);
          int w = BitWidth(i.type);
          uint64_t r = 0;
          switch (i.op) {
            case Opcode::kAdd: r = a + c; break;
            case Opcode::kSub: r = a - c; break;
            case Opcode::kMul: r = a * c; break;
            case Opcode::kUDiv: r = c == 0 ? 0 : a / c; break;
            case Opcode::kURem: r = c == 0 ? 0 : a % c; break;
            case Opcode::kAnd: r = a & c; break;
            case Opcode::kOr: r = a | c; break;
            case Opcode::kXor: r = a ^ c; break;
            case Opcode::kShl: r = a << (c & (w - 1)); break;
            case Opcode::kLShr: r = a >> (c & (w - 1)); break;
            case Opcode::kAShr: r = ArithShiftRight(a, c & (w - 1), w); break;
            default: break;
          }
          regs_[i.result] = MaskToType(r, i.type);
          break;
        }
        case Opcode::kIcmpEq:
        case Opcode::kIcmpNe:
        case Opcode::kIcmpUlt:
        case Opcode::kIcmpUle:
        case Opcode::kIcmpUgt:
        case Opcode::kIcmpUge: {
          uint64_t a = Eval(i.operands[0]);
          uint64_t c = Eval(i.operands[1]);
          bool r = false;
          switch (i.op) {
            case Opcode::kIcmpEq: r = a == c; break;
            case Opcode::kIcmpNe: r = a != c; break;
            case Opcode::kIcmpUlt: r = a < c; break;
            case Opcode::kIcmpUle: r = a <= c; break;
            case Opcode::kIcmpUgt: r = a > c; break;
            case Opcode::kIcmpUge: r = a >= c; break;
            default: break;
          }
          regs_[i.result] = r ? 1 : 0;
          break;
        }
        case Opcode::kZext:
        case Opcode::kTrunc:
          regs_[i.result] = MaskToType(Eval(i.operands[0]), i.type);
          break;
        case Opcode::kSext: {
          const Value& src = i.operands[0];
          int sw = 64;
          if (src.is_reg()) {
            auto it = reg_types_.find(src.reg);
            sw = it == reg_types_.end() ? 32 : BitWidth(it->second);
          }
          regs_[i.result] = MaskToType(SignExtendFrom(Eval(src), sw), i.type);
          break;
        }
        case Opcode::kSelect:
          regs_[i.result] = MaskToType(
              Eval(i.operands[0]) != 0 ? Eval(i.operands[1]) : Eval(i.operands[2]),
              i.type);
          break;
        case Opcode::kLoad: {
          uint64_t dyn = i.has_dyn_index ? Eval(i.operands.back()) : 0;
          uint64_t v = 0;
          switch (i.space) {
            case AddressSpace::kStack:
              v = i.sym < slots_.size() ? slots_[i.sym] : 0;
              break;
            case AddressSpace::kPacket:
              v = env.PacketRead(i.sym, dyn, i.has_dyn_index);
              break;
            case AddressSpace::kState:
              v = env.StateRead(i.sym, dyn, i.offset, BitWidth(i.type));
              break;
            case AddressSpace::kNone:
              break;
          }
          regs_[i.result] = MaskToType(v, i.type);
          break;
        }
        case Opcode::kStore: {
          uint64_t v = MaskToType(Eval(i.operands[0]), i.type);
          uint64_t dyn = i.has_dyn_index ? Eval(i.operands.back()) : 0;
          switch (i.space) {
            case AddressSpace::kStack:
              if (i.sym < slots_.size()) {
                slots_[i.sym] = v;
              }
              break;
            case AddressSpace::kPacket:
              env.PacketWrite(i.sym, dyn, v, i.has_dyn_index);
              break;
            case AddressSpace::kState:
              env.StateWrite(i.sym, dyn, i.offset, BitWidth(i.type), v);
              break;
            case AddressSpace::kNone:
              break;
          }
          break;
        }
        case Opcode::kCall: {
          std::vector<uint64_t> args;
          args.reserve(i.operands.size());
          for (const auto& a : i.operands) {
            args.push_back(Eval(a));
          }
          uint64_t r = env.CallApi(m_.apis[i.callee].name, args);
          if (i.result != 0) {
            regs_[i.result] = MaskToType(r, i.type);
          }
          break;
        }
        case Opcode::kBr:
          b = i.target0;
          jumped = true;
          break;
        case Opcode::kCondBr:
          b = Eval(i.operands[0]) != 0 ? i.target0 : i.target1;
          jumped = true;
          break;
        case Opcode::kRet:
          return true;
      }
      if (jumped) {
        break;
      }
    }
    if (!jumped) {
      error_ = "block fell through without terminator";
      return false;
    }
    if (b >= f_.blocks.size()) {
      error_ = "branch target out of range";
      return false;
    }
  }
}

// ---- NIC ISA executor ----

NicExecutor::NicExecutor(const Module& m, const NicProgram& prog) : m_(m), prog_(prog) {}

uint64_t NicExecutor::Eval(const NicRef& r) const {
  if (r.is_imm()) {
    return static_cast<uint64_t>(r.imm);
  }
  if (r.is_reg()) {
    auto it = regs_.find(r.reg);
    return it == regs_.end() ? 0 : it->second;
  }
  return 0;
}

void NicExecutor::SetReg(uint32_t reg, uint64_t v, Type t) {
  if (reg != 0) {
    regs_[reg] = MaskToType(v, t);
  }
}

// Executes one instruction. Sets *jumped/*next when control transfers;
// returns false on budget exhaustion or a malformed instruction.
bool NicExecutor::Exec(const NicInstr& i, NfEnv& env, bool* jumped, uint32_t* next) {
  ++op_hist_[static_cast<size_t>(i.op)];
  // API-call semantic carrier (kCsr for accelerator-backed APIs, otherwise
  // the expansion's first compute op).
  if (i.callee != NicInstr::kNoCallee) {
    std::vector<uint64_t> args;
    if (i.a.valid()) {
      args.push_back(Eval(i.a));
    }
    if (i.b.valid()) {
      args.push_back(Eval(i.b));
    }
    if (i.c.valid()) {
      args.push_back(Eval(i.c));
    }
    uint64_t r = i.callee < m_.apis.size()
                     ? env.CallApi(m_.apis[i.callee].name, args)
                     : 0;
    if (i.dst != 0) {
      SetReg(i.dst, r, i.vtype);
    }
    return true;
  }
  switch (i.op) {
    case NicOp::kAlu:
    case NicOp::kAluShf: {
      int w = BitWidth(i.vtype);
      switch (i.alu) {
        case NicAlu::kNone:
          break;  // cost-only scratch op
        case NicAlu::kMov:
          SetReg(i.dst, Eval(i.a), i.vtype);
          break;
        case NicAlu::kAdd:
          SetReg(i.dst, Eval(i.a) + Eval(i.b), i.vtype);
          break;
        case NicAlu::kSub:
          SetReg(i.dst, Eval(i.a) - Eval(i.b), i.vtype);
          break;
        case NicAlu::kAnd:
          SetReg(i.dst, Eval(i.a) & Eval(i.b), i.vtype);
          break;
        case NicAlu::kOr:
          SetReg(i.dst, Eval(i.a) | Eval(i.b), i.vtype);
          break;
        case NicAlu::kXor:
          SetReg(i.dst, Eval(i.a) ^ Eval(i.b), i.vtype);
          break;
        case NicAlu::kShl:
        case NicAlu::kShr: {
          uint64_t a = Eval(i.a);
          uint64_t r;
          if (i.b.valid()) {
            // Program-level shift: amount wraps at the type width, matching
            // the AST/IR semantics.
            uint64_t sa = Eval(i.b) & static_cast<uint64_t>(w - 1);
            r = i.alu == NicAlu::kShl ? a << sa : a >> sa;
          } else {
            // Synthetic strength-reduction shift (mul/udiv by 2^k): the raw
            // exponent, which may exceed the width — result is then zero.
            r = i.shift >= w ? 0
                             : (i.alu == NicAlu::kShl ? a << i.shift : a >> i.shift);
          }
          SetReg(i.dst, r, i.vtype);
          break;
        }
        case NicAlu::kAsr: {
          uint64_t sa = Eval(i.b) & static_cast<uint64_t>(w - 1);
          SetReg(i.dst, ArithShiftRight(Eval(i.a), sa, w), i.vtype);
          break;
        }
        case NicAlu::kSext:
          SetReg(i.dst, SignExtendFrom(Eval(i.a), i.shift), i.vtype);
          break;
        case NicAlu::kSelect:
          SetReg(i.dst, Eval(i.c) != 0 ? Eval(i.a) : Eval(i.b), i.vtype);
          break;
        case NicAlu::kCmp:
          flag_ = EvalCc(i.cc, Eval(i.a), Eval(i.b));
          if (i.dst != 0) {
            SetReg(i.dst, flag_ ? 1 : 0, Type::kI1);
          }
          break;
        case NicAlu::kTest:
          flag_ = Eval(i.a) != 0;
          break;
        case NicAlu::kSetCc:
          SetReg(i.dst, flag_ ? 1 : 0, Type::kI1);
          break;
        case NicAlu::kUDiv: {
          uint64_t bv = Eval(i.b);
          SetReg(i.dst, bv == 0 ? 0 : Eval(i.a) / bv, i.vtype);
          break;
        }
        case NicAlu::kURem: {
          uint64_t bv = Eval(i.b);
          SetReg(i.dst, bv == 0 ? 0 : Eval(i.a) % bv, i.vtype);
          break;
        }
      }
      break;
    }
    case NicOp::kMulStep:
      if (i.mul_last) {
        SetReg(i.dst, Eval(i.a) * Eval(i.b), i.vtype);
      }
      break;
    case NicOp::kImmed:
    case NicOp::kNop:
    case NicOp::kCsr:  // accelerator commands without a callee are cost-only
      break;
    case NicOp::kLdField:
    case NicOp::kMemRead: {
      bool semantic = i.op == NicOp::kLdField
                          ? (i.fmode == NicFieldMode::kExtract && i.dst != 0)
                          : (i.mbits != 0 && i.dst != 0);
      if (!semantic) {
        break;  // cost-only transfer / merge scratch
      }
      uint64_t dyn = i.midx.valid() ? Eval(i.midx) : 0;
      uint64_t v = 0;
      if (i.space == AddressSpace::kPacket) {
        v = env.PacketRead(i.sym, dyn, i.midx.valid());
      } else if (i.space == AddressSpace::kState) {
        v = env.StateRead(i.sym, dyn, i.moff, i.mbits);
      }
      SetReg(i.dst, v, i.vtype);
      break;
    }
    case NicOp::kMemWrite: {
      if (i.mbits == 0) {
        break;  // cost-only burst (API expansion traffic)
      }
      uint64_t dyn = i.midx.valid() ? Eval(i.midx) : 0;
      uint64_t v = MaskToType(Eval(i.a), i.vtype);
      if (i.space == AddressSpace::kPacket) {
        env.PacketWrite(i.sym, dyn, v, i.midx.valid());
      } else if (i.space == AddressSpace::kState) {
        env.StateWrite(i.sym, dyn, i.moff, i.mbits, v);
      }
      break;
    }
    case NicOp::kLmemRead:
      SetReg(i.dst, Eval(i.a), i.vtype);
      break;
    case NicOp::kLmemWrite:
      SetReg(i.dst, Eval(i.a), i.vtype);
      break;
    case NicOp::kBr:
      if (i.is_ret) {
        *jumped = true;
        *next = 0xffffffffu;  // return sentinel
      } else if (i.has_targets) {
        *jumped = true;
        *next = i.t0;
      }
      break;
    case NicOp::kBcc:
      if (i.has_targets) {
        *jumped = true;
        *next = Eval(i.a) != 0 ? i.t0 : i.t1;
      }
      break;
  }
  return true;
}

bool NicExecutor::RunPacket(NfEnv& env) {
  regs_.clear();
  flag_ = false;
  steps_ = 0;
  if (prog_.blocks.empty()) {
    return true;
  }
  uint32_t b = 0;
  while (true) {
    const NicBlock& blk = prog_.blocks[b];
    size_t mp = 0;
    bool jumped = false;
    uint32_t next = 0;
    for (size_t k = 0; k <= blk.instrs.size(); ++k) {
      // Zero-cost architectural moves scheduled before instruction k.
      while (mp < blk.moves.size() && blk.moves[mp].before_index == k) {
        const NicMove& mv = blk.moves[mp];
        SetReg(mv.dst, Eval(mv.src), mv.vtype);
        ++mp;
      }
      if (k == blk.instrs.size()) {
        break;
      }
      if (++steps_ > kNicStepBudget) {
        error_ = "nic step budget exhausted";
        return false;
      }
      if (!Exec(blk.instrs[k], env, &jumped, &next)) {
        return false;
      }
      if (jumped) {
        break;
      }
    }
    if (!jumped) {
      error_ = "block fell through without branch";
      return false;
    }
    if (next == 0xffffffffu) {
      return true;  // ret
    }
    if (next >= prog_.blocks.size()) {
      error_ = "branch target out of range";
      return false;
    }
    b = next;
  }
}

}  // namespace clara
