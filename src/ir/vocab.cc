#include "src/ir/vocab.h"

#include <cstdlib>
#include <sstream>

#include "src/ir/packet_fields.h"
#include "src/util/binio.h"

namespace clara {
namespace {

std::string OperandWord(const Value& v, AbstractionMode mode) {
  if (mode == AbstractionMode::kRaw) {
    if (v.is_const()) {
      return std::to_string(v.imm);
    }
    return "%" + std::to_string(v.reg);
  }
  if (v.is_reg()) {
    return "VAR";
  }
  int64_t a = std::llabs(v.imm);
  if (a < 256) {
    return "C8";
  }
  if (a < 65536) {
    return "C16";
  }
  return "C32";
}

}  // namespace

std::string AbstractInstruction(const Instruction& i, const Module& m, AbstractionMode mode) {
  std::ostringstream os;
  switch (i.op) {
    case Opcode::kLoad:
    case Opcode::kStore:
      os << OpcodeName(i.op) << "." << AddressSpaceName(i.space) << " " << TypeName(i.type);
      if (i.space == AddressSpace::kPacket) {
        // Header field names are part of the vocabulary (paper §3.2).
        os << " " << kPacketFields[i.sym].name;
      }
      if (i.has_dyn_index) {
        os << " idx";
      }
      if (mode == AbstractionMode::kRaw) {
        if (i.space == AddressSpace::kStack) {
          os << " slot" << i.sym;
        } else if (i.space == AddressSpace::kState) {
          os << " " << m.state[i.sym].name;
        }
        os << " +" << i.offset;
      }
      break;
    case Opcode::kCall:
      os << "call " << m.apis[i.callee].name;
      break;
    case Opcode::kBr:
      os << "br";
      break;
    case Opcode::kCondBr:
      os << "condbr";
      break;
    case Opcode::kRet:
      os << "ret";
      break;
    default:
      os << OpcodeName(i.op) << " " << TypeName(i.type);
      for (const auto& v : i.operands) {
        os << " " << OperandWord(v, mode);
      }
      break;
  }
  return os.str();
}

std::vector<std::string> AbstractBlock(const BasicBlock& block, const Module& m,
                                       AbstractionMode mode) {
  std::vector<std::string> words;
  words.reserve(block.instrs.size());
  for (const auto& i : block.instrs) {
    words.push_back(AbstractInstruction(i, m, mode));
  }
  return words;
}

int Vocabulary::Intern(const std::string& word) {
  auto it = id_by_word_.find(word);
  if (it != id_by_word_.end()) {
    return it->second;
  }
  if (frozen_) {
    return 0;
  }
  int id = static_cast<int>(words_.size());
  id_by_word_.emplace(word, id);
  words_.push_back(word);
  return id;
}

int Vocabulary::Lookup(const std::string& word) const {
  auto it = id_by_word_.find(word);
  return it == id_by_word_.end() ? 0 : it->second;
}

std::vector<int> Vocabulary::Encode(const BasicBlock& block, const Module& m,
                                    AbstractionMode mode) {
  std::vector<int> out;
  out.reserve(block.instrs.size());
  for (const auto& word : AbstractBlock(block, m, mode)) {
    out.push_back(frozen_ ? Lookup(word) : Intern(word));
  }
  return out;
}

void Vocabulary::SaveTo(BinWriter& w) const {
  w.U16(0x564F);  // "VO"
  w.VecStr(words_);
  w.Bool(frozen_);
}

bool Vocabulary::LoadFrom(BinReader& r) {
  if (r.U16() != 0x564F) {
    r.Fail("vocabulary: bad section tag");
    return false;
  }
  std::vector<std::string> words;
  r.VecStr(&words);
  bool frozen = r.Bool();
  if (!r.ok()) {
    return false;
  }
  if (words.empty() || words[0] != "<unk>") {
    r.Fail("vocabulary: word 0 must be <unk>");
    return false;
  }
  std::unordered_map<std::string, int> by_word;
  by_word.reserve(words.size());
  for (size_t i = 0; i < words.size(); ++i) {
    if (!by_word.emplace(words[i], static_cast<int>(i)).second) {
      r.Fail("vocabulary: duplicate word '" + words[i] + "'");
      return false;
    }
  }
  words_ = std::move(words);
  id_by_word_ = std::move(by_word);
  frozen_ = frozen;
  return true;
}

std::vector<double> Vocabulary::Histogram(const std::vector<int>& tokens) const {
  std::vector<double> h(words_.size(), 0.0);
  for (int t : tokens) {
    if (t >= 0 && t < static_cast<int>(h.size())) {
      h[t] += 1.0;
    }
  }
  if (!tokens.empty()) {
    for (auto& v : h) {
      v /= static_cast<double>(tokens.size());
    }
  }
  return h;
}

}  // namespace clara
