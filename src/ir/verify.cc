#include "src/ir/verify.h"

#include <set>
#include <sstream>

#include "src/ir/packet_fields.h"

namespace clara {
namespace {

class Verifier {
 public:
  explicit Verifier(const Module& m) : m_(m) {}

  VerifyResult Run() {
    for (const auto& f : m_.functions) {
      VerifyFunction(f);
    }
    VerifyResult r;
    r.errors = std::move(errors_);
    r.ok = r.errors.empty();
    return r;
  }

 private:
  template <typename... Args>
  void Error(const Function& f, size_t block, Args&&... parts) {
    std::ostringstream os;
    os << f.name << " block " << block << ": ";
    (os << ... << parts);
    errors_.push_back(os.str());
  }

  void VerifyFunction(const Function& f) {
    // Pass 1: collect definitions.
    std::set<uint32_t> defined;
    for (size_t b = 0; b < f.blocks.size(); ++b) {
      for (const auto& i : f.blocks[b].instrs) {
        if (i.result == 0) {
          continue;
        }
        if (i.result >= f.next_reg) {
          Error(f, b, "register %", i.result, " >= next_reg ", f.next_reg);
        }
        if (!defined.insert(i.result).second) {
          Error(f, b, "register %", i.result, " defined more than once");
        }
      }
    }
    // Pass 2: structure and uses.
    for (size_t b = 0; b < f.blocks.size(); ++b) {
      const auto& instrs = f.blocks[b].instrs;
      if (instrs.empty()) {
        Error(f, b, "empty block");
        continue;
      }
      if (!IsTerminator(instrs.back().op)) {
        Error(f, b, "block does not end with a terminator");
      }
      for (size_t k = 0; k < instrs.size(); ++k) {
        const Instruction& i = instrs[k];
        if (IsTerminator(i.op) && k + 1 != instrs.size()) {
          Error(f, b, "terminator at position ", k, " is not last");
        }
        for (const auto& v : i.operands) {
          if (v.is_reg() && defined.count(v.reg) == 0) {
            Error(f, b, OpcodeName(i.op), " uses undefined register %", v.reg);
          }
        }
        switch (i.op) {
          case Opcode::kLoad:
          case Opcode::kStore:
            switch (i.space) {
              case AddressSpace::kStack:
                if (i.sym >= f.slots.size()) {
                  Error(f, b, "stack access to invalid slot ", i.sym);
                }
                break;
              case AddressSpace::kPacket:
                if (i.sym >= kNumPacketFields) {
                  Error(f, b, "packet access to invalid field ", i.sym);
                }
                break;
              case AddressSpace::kState:
                if (i.sym >= m_.state.size()) {
                  Error(f, b, "state access to invalid symbol ", i.sym);
                }
                break;
              case AddressSpace::kNone:
                Error(f, b, "memory access without an address space");
                break;
            }
            break;
          case Opcode::kCall:
            if (i.callee >= m_.apis.size()) {
              Error(f, b, "call to unregistered API ", i.callee);
            }
            break;
          case Opcode::kBr:
            if (i.target0 >= f.blocks.size()) {
              Error(f, b, "br to invalid block ", i.target0);
            }
            break;
          case Opcode::kCondBr:
            if (i.target0 >= f.blocks.size() || i.target1 >= f.blocks.size()) {
              Error(f, b, "condbr to invalid block");
            }
            if (i.operands.empty()) {
              Error(f, b, "condbr without a condition");
            }
            break;
          default:
            break;
        }
      }
    }
  }

  const Module& m_;
  std::vector<std::string> errors_;
};

}  // namespace

VerifyResult VerifyModule(const Module& m) { return Verifier(m).Run(); }

}  // namespace clara
