#include "src/ir/parser.h"

#include <cctype>
#include <map>
#include <sstream>
#include <vector>

#include "src/ir/packet_fields.h"

namespace clara {
namespace {

// Minimal cursor-based tokenizer over one line.
class LineCursor {
 public:
  explicit LineCursor(const std::string& s) : s_(s) {}

  void SkipWs() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  bool AtEnd() {
    SkipWs();
    return pos_ >= s_.size();
  }

  char Peek() {
    SkipWs();
    return pos_ < s_.size() ? s_[pos_] : '\0';
  }

  bool Consume(char c) {
    SkipWs();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(const std::string& w) {
    SkipWs();
    if (s_.compare(pos_, w.size(), w) == 0) {
      size_t end = pos_ + w.size();
      if (end == s_.size() || !IsIdentChar(s_[end])) {
        pos_ = end;
        return true;
      }
    }
    return false;
  }

  // Identifier: letters, digits, '_', '.', allowed to start with letter/_/%.
  std::string Ident() {
    SkipWs();
    size_t start = pos_;
    while (pos_ < s_.size() && IsIdentChar(s_[pos_])) {
      ++pos_;
    }
    return s_.substr(start, pos_ - start);
  }

  std::optional<int64_t> Int() {
    SkipWs();
    size_t start = pos_;
    if (pos_ < s_.size() && (s_[pos_] == '-' || s_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < s_.size() && std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    if (pos_ == start || (pos_ == start + 1 && !std::isdigit(static_cast<unsigned char>(s_[start])))) {
      pos_ = start;
      return std::nullopt;
    }
    return std::stoll(s_.substr(start, pos_ - start));
  }

  static bool IsIdentChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.';
  }

 private:
  const std::string& s_;
  size_t pos_ = 0;
};

std::optional<Type> ParseType(const std::string& t) {
  if (t == "void") return Type::kVoid;
  if (t == "i1") return Type::kI1;
  if (t == "i8") return Type::kI8;
  if (t == "i16") return Type::kI16;
  if (t == "i32") return Type::kI32;
  if (t == "i64") return Type::kI64;
  return std::nullopt;
}

std::optional<Opcode> ParseOpcode(const std::string& w) {
  static const std::map<std::string, Opcode> kMap = {
      {"add", Opcode::kAdd},         {"sub", Opcode::kSub},
      {"mul", Opcode::kMul},         {"udiv", Opcode::kUDiv},
      {"urem", Opcode::kURem},       {"and", Opcode::kAnd},
      {"or", Opcode::kOr},           {"xor", Opcode::kXor},
      {"shl", Opcode::kShl},         {"lshr", Opcode::kLShr},
      {"ashr", Opcode::kAShr},       {"icmp.eq", Opcode::kIcmpEq},
      {"icmp.ne", Opcode::kIcmpNe},  {"icmp.ult", Opcode::kIcmpUlt},
      {"icmp.ule", Opcode::kIcmpUle}, {"icmp.ugt", Opcode::kIcmpUgt},
      {"icmp.uge", Opcode::kIcmpUge}, {"zext", Opcode::kZext},
      {"sext", Opcode::kSext},       {"trunc", Opcode::kTrunc},
      {"select", Opcode::kSelect},   {"load", Opcode::kLoad},
      {"store", Opcode::kStore},     {"call", Opcode::kCall},
      {"br", Opcode::kBr},           {"condbr", Opcode::kCondBr},
      {"ret", Opcode::kRet},
  };
  auto it = kMap.find(w);
  if (it == kMap.end()) {
    return std::nullopt;
  }
  return it->second;
}

struct FuncContext {
  Function* func = nullptr;
  std::map<std::string, uint32_t> block_by_label;
};

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  ParseResult Run() {
    ParseResult r;
    std::istringstream in(text_);
    std::string line;
    // Pass 1: pre-register blocks per function so forward branches resolve.
    {
      std::istringstream pre(text_);
      std::string l;
      FuncContext* ctx = nullptr;
      std::vector<FuncContext> contexts;
      while (std::getline(pre, l)) {
        LineCursor c(l);
        if (c.ConsumeWord("func")) {
          contexts.emplace_back();
          ctx = &contexts.back();
        } else if (c.Peek() == '^' && ctx != nullptr) {
          c.Consume('^');
          std::string label = c.Ident();
          ctx->block_by_label.emplace(label, ctx->block_by_label.size());
        }
      }
      prepass_ = std::move(contexts);
    }

    size_t func_index = 0;
    FuncContext* ctx = nullptr;
    int lineno = 0;
    while (std::getline(in, line)) {
      ++lineno;
      LineCursor c(line);
      if (c.AtEnd() || c.Peek() == '#') {
        continue;
      }
      if (c.ConsumeWord("module")) {
        r.module.name = c.Ident();
        continue;
      }
      if (c.ConsumeWord("state")) {
        if (!ParseState(c, r.module)) {
          return Fail(lineno, "bad state declaration");
        }
        continue;
      }
      if (c.ConsumeWord("func")) {
        c.Consume('@');
        r.module.functions.emplace_back();
        Function& f = r.module.functions.back();
        f.name = c.Ident();
        cur_ = FuncContext{};
        cur_.func = &f;
        cur_.block_by_label = prepass_[func_index].block_by_label;
        f.blocks.resize(cur_.block_by_label.size());
        for (const auto& [label, idx] : cur_.block_by_label) {
          f.blocks[idx].label = label;
        }
        ++func_index;
        ctx = &cur_;
        continue;
      }
      if (c.Peek() == '}') {
        ctx = nullptr;
        continue;
      }
      if (ctx == nullptr) {
        return Fail(lineno, "instruction outside function");
      }
      if (c.ConsumeWord("local")) {
        std::string name = c.Ident();
        c.Consume(':');
        auto t = ParseType(c.Ident());
        if (!t) {
          return Fail(lineno, "bad local type");
        }
        ctx->func->slots.push_back(StackSlot{name, *t});
        continue;
      }
      if (c.Peek() == '^') {
        c.Consume('^');
        std::string label = c.Ident();
        cur_block_ = ctx->block_by_label.at(label);
        if (c.Consume('!')) {
          c.Ident();  // "region"
          auto n = c.Int();
          if (n) {
            ctx->func->blocks[cur_block_].ast_region = static_cast<int>(*n);
          }
        }
        continue;
      }
      std::string err;
      if (!ParseInstr(c, r.module, *ctx, err)) {
        return Fail(lineno, err.empty() ? "bad instruction" : err);
      }
    }
    r.ok = true;
    return r;
  }

 private:
  ParseResult Fail(int line, const std::string& msg) {
    ParseResult r;
    r.error = "line " + std::to_string(line) + ": " + msg;
    return r;
  }

  static bool ParseState(LineCursor& c, Module& m) {
    StateVar sv;
    sv.name = c.Ident();
    if (!c.Consume(':')) {
      return false;
    }
    if (c.ConsumeWord("map")) {
      if (!c.Consume('<')) {
        return false;
      }
      auto kb = c.Int();
      c.Consume(',');
      auto vb = c.Int();
      c.Consume(',');
      auto cap = c.Int();
      if (!kb || !vb || !cap || !c.Consume('>')) {
        return false;
      }
      sv.kind = StateKind::kMap;
      sv.key_bytes = static_cast<uint32_t>(*kb);
      sv.value_bytes = static_cast<uint32_t>(*vb);
      sv.capacity = static_cast<uint32_t>(*cap);
    } else {
      auto t = ParseType(c.Ident());
      if (!t) {
        return false;
      }
      sv.elem_type = *t;
      if (c.Consume('[')) {
        auto n = c.Int();
        if (!n || !c.Consume(']')) {
          return false;
        }
        sv.kind = StateKind::kArray;
        sv.length = static_cast<uint32_t>(*n);
      } else {
        sv.kind = StateKind::kScalar;
      }
    }
    m.state.push_back(sv);
    return true;
  }

  static std::optional<Value> ParseValue(LineCursor& c) {
    if (c.Consume('%')) {
      auto n = c.Int();
      if (!n) {
        return std::nullopt;
      }
      return Value::Reg(static_cast<uint32_t>(*n));
    }
    auto n = c.Int();
    if (!n) {
      return std::nullopt;
    }
    return Value::Const(*n);
  }

  // Parses "stack:name", "pkt:field", "state:name" with optional "[idx]" and
  // "+off" suffixes. Fills instruction memory metadata.
  static bool ParseMemTarget(LineCursor& c, const Module& m, const Function& f,
                             Instruction& instr) {
    std::string word = c.Ident();
    size_t colon = word.find(':');
    std::string space = word;
    std::string sym;
    if (colon != std::string::npos) {
      space = word.substr(0, colon);
      sym = word.substr(colon + 1);
    } else if (c.Consume(':')) {
      sym = c.Ident();
    }
    if (space == "stack") {
      instr.space = AddressSpace::kStack;
      for (size_t i = 0; i < f.slots.size(); ++i) {
        if (f.slots[i].name == sym) {
          instr.sym = static_cast<uint32_t>(i);
          break;
        }
      }
    } else if (space == "pkt") {
      int idx = FindPacketFieldIndex(sym);
      if (idx < 0) {
        return false;
      }
      instr.space = AddressSpace::kPacket;
      instr.sym = static_cast<uint32_t>(idx);
    } else if (space == "state") {
      int idx = m.FindState(sym);
      if (idx < 0) {
        return false;
      }
      instr.space = AddressSpace::kState;
      instr.sym = static_cast<uint32_t>(idx);
    } else {
      return false;
    }
    if (c.Consume('[')) {
      auto v = ParseValue(c);
      if (!v || !c.Consume(']')) {
        return false;
      }
      instr.has_dyn_index = true;
      instr.operands.push_back(*v);
    }
    if (c.Consume('+')) {
      auto off = c.Int();
      if (!off) {
        return false;
      }
      instr.offset = static_cast<int32_t>(*off);
    }
    return true;
  }

  bool ParseInstr(LineCursor& c, Module& m, FuncContext& ctx, std::string& err) {
    Instruction instr;
    uint32_t result = 0;
    if (c.Peek() == '%') {
      c.Consume('%');
      auto n = c.Int();
      if (!n || !c.Consume('=')) {
        err = "bad result register";
        return false;
      }
      result = static_cast<uint32_t>(*n);
    }
    // Opcode may contain '.', Ident covers it.
    std::string opw = c.Ident();
    auto op = ParseOpcode(opw);
    if (!op) {
      err = "unknown opcode '" + opw + "'";
      return false;
    }
    instr.op = *op;
    instr.result = result;
    Function& f = *ctx.func;
    switch (*op) {
      case Opcode::kLoad: {
        auto t = ParseType(c.Ident());
        if (!t) {
          err = "bad load type";
          return false;
        }
        instr.type = *t;
        if (!ParseMemTarget(c, m, f, instr)) {
          err = "bad load target";
          return false;
        }
        break;
      }
      case Opcode::kStore: {
        auto t = ParseType(c.Ident());
        if (!t) {
          err = "bad store type";
          return false;
        }
        instr.type = *t;
        auto v = ParseValue(c);
        if (!v || !c.Consume(',')) {
          err = "bad store value";
          return false;
        }
        instr.operands.push_back(*v);
        if (!ParseMemTarget(c, m, f, instr)) {
          err = "bad store target";
          return false;
        }
        break;
      }
      case Opcode::kCall: {
        if (!c.Consume('@')) {
          err = "missing callee";
          return false;
        }
        std::string callee = c.Ident();
        if (!c.Consume('(')) {
          err = "missing (";
          return false;
        }
        std::vector<Value> args;
        if (!c.Consume(')')) {
          while (true) {
            auto v = ParseValue(c);
            if (!v) {
              err = "bad call arg";
              return false;
            }
            args.push_back(*v);
            if (c.Consume(')')) {
              break;
            }
            if (!c.Consume(',')) {
              err = "expected , or )";
              return false;
            }
          }
        }
        Type rt = Type::kVoid;
        if (c.Consume(':')) {
          auto t = ParseType(c.Ident());
          if (!t) {
            err = "bad call result type";
            return false;
          }
          rt = *t;
        }
        instr.type = rt;
        instr.callee = m.InternApi(callee, static_cast<uint8_t>(args.size()), rt);
        instr.operands = std::move(args);
        break;
      }
      case Opcode::kBr: {
        if (!c.Consume('^')) {
          err = "missing target";
          return false;
        }
        instr.target0 = ctx.block_by_label.at(c.Ident());
        break;
      }
      case Opcode::kCondBr: {
        auto v = ParseValue(c);
        if (!v || !c.Consume(',') || !c.Consume('^')) {
          err = "bad condbr";
          return false;
        }
        instr.operands.push_back(*v);
        instr.target0 = ctx.block_by_label.at(c.Ident());
        if (!c.Consume(',') || !c.Consume('^')) {
          err = "bad condbr targets";
          return false;
        }
        instr.target1 = ctx.block_by_label.at(c.Ident());
        break;
      }
      case Opcode::kRet:
        break;
      default: {
        // Typed n-ary: "<type> v1, v2[, v3]".
        auto t = ParseType(c.Ident());
        if (!t) {
          err = "bad type";
          return false;
        }
        instr.type = *t;
        while (true) {
          auto v = ParseValue(c);
          if (!v) {
            err = "bad operand";
            return false;
          }
          instr.operands.push_back(*v);
          if (!c.Consume(',')) {
            break;
          }
        }
        break;
      }
    }
    f.blocks[cur_block_].instrs.push_back(std::move(instr));
    if (result >= f.next_reg) {
      f.next_reg = result + 1;
    }
    return true;
  }

  const std::string& text_;
  std::vector<FuncContext> prepass_;
  FuncContext cur_;
  uint32_t cur_block_ = 0;
};

}  // namespace

ParseResult ParseModule(const std::string& text) { return Parser(text).Run(); }

}  // namespace clara
