#include "src/synth/synth.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "src/ir/packet_fields.h"
#include "src/util/binio.h"

namespace clara {
namespace {

int OpIndex(Opcode op) {
  switch (op) {
    case Opcode::kAdd: return 0;
    case Opcode::kSub: return 1;
    case Opcode::kMul: return 2;
    case Opcode::kAnd: return 3;
    case Opcode::kOr: return 4;
    case Opcode::kXor: return 5;
    case Opcode::kShl: return 6;
    case Opcode::kLShr: return 7;
    case Opcode::kUDiv: return 8;
    default: return -1;
  }
}

Opcode OpFromIndex(size_t i) {
  static const Opcode kOps[] = {Opcode::kAdd, Opcode::kSub,  Opcode::kMul,
                                Opcode::kAnd, Opcode::kOr,   Opcode::kXor,
                                Opcode::kShl, Opcode::kLShr, Opcode::kUDiv};
  return kOps[i % 9];
}

// ---- Corpus measurement ----

class Measurer {
 public:
  SynthProfile Run(const std::vector<const Program*>& corpus) {
    profile_.stmt_weights.assign(kNumSynthStmts, 0.1);
    profile_.op_weights.assign(9, 0.1);
    profile_.field_weights.assign(kNumPacketFields, 0.1);
    double total_body = 0;
    int stateful = 0;
    double scalars = 0;
    double scalars_i64 = 0;
    int arrays = 0;
    int maps = 0;
    for (const Program* p : corpus) {
      total_body += static_cast<double>(p->body.size());
      if (!p->state.empty()) {
        ++stateful;
      }
      for (const auto& s : p->state) {
        switch (s.kind) {
          case StateKind::kScalar:
            scalars += 1;
            scalars_i64 += s.elem_type == Type::kI64 ? 1 : 0;
            break;
          case StateKind::kArray: ++arrays; break;
          case StateKind::kMap: ++maps; break;
        }
      }
      MeasureBody(p->body);
    }
    size_t n = std::max<size_t>(1, corpus.size());
    profile_.avg_body_len = std::max(4.0, total_body / n);
    profile_.stateful_prob = static_cast<double>(stateful) / n;
    profile_.scalar_state_avg = scalars / n;
    profile_.array_state_prob = std::min(1.0, static_cast<double>(arrays) / n);
    profile_.map_state_prob = std::min(1.0, static_cast<double>(maps) / n);
    profile_.scalar_i64_frac = scalars > 0 ? scalars_i64 / scalars : 0.5;
    profile_.local_leaf_prob =
        leaves_ > 0 ? static_cast<double>(local_leaves_) / leaves_ : 0.4;
    profile_.mask_test_prob = ifs_ > 0 ? static_cast<double>(mask_ifs_) / ifs_ : 0.3;
    profile_.mul_bigconst_prob =
        muls_ > 0 ? static_cast<double>(bigconst_muls_) / muls_ : 0.3;
    return profile_;
  }

 private:
  void Count(SynthStmt k) { profile_.stmt_weights[static_cast<int>(k)] += 1; }

  void MeasureExpr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kIntLit:
      case ExprKind::kPacketField:
      case ExprKind::kStateScalar:
      case ExprKind::kPayloadByte:
        ++leaves_;
        break;
      case ExprKind::kLocal:
        ++leaves_;
        ++local_leaves_;
        break;
      default:
        break;
    }
    if (e.kind == ExprKind::kBinary && e.op == Opcode::kMul) {
      ++muls_;
      for (const auto& a : e.args) {
        if (a->kind == ExprKind::kIntLit && a->value > 0xffff) {
          ++bigconst_muls_;
          break;
        }
      }
    }
    if (e.kind == ExprKind::kBinary) {
      int idx = OpIndex(e.op);
      if (idx >= 0) {
        profile_.op_weights[idx] += 1;
      }
    }
    if (e.kind == ExprKind::kPacketField) {
      int field = FindPacketFieldIndex(e.name);
      if (field >= 0) {
        profile_.field_weights[field] += 1;
      }
    }
    for (const auto& a : e.args) {
      MeasureExpr(*a);
    }
  }

  static bool Mentions(const Expr& e, ExprKind kind) {
    if (e.kind == kind) {
      return true;
    }
    for (const auto& a : e.args) {
      if (Mentions(*a, kind)) {
        return true;
      }
    }
    return false;
  }

  void MeasureBody(const std::vector<StmtPtr>& body) {
    for (const auto& s : body) {
      MeasureStmt(*s);
    }
  }

  void MeasureStmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::kDecl:
      case StmtKind::kAssignLocal:
        if (s.e0 && Mentions(*s.e0, ExprKind::kPayloadByte)) {
          Count(SynthStmt::kPayloadOp);
        } else if (s.e0 && Mentions(*s.e0, ExprKind::kPacketField)) {
          Count(SynthStmt::kPacketRead);
        } else {
          Count(SynthStmt::kArith);
        }
        break;
      case StmtKind::kAssignPacket:
        Count(SynthStmt::kPacketWrite);
        break;
      case StmtKind::kAssignPayload:
        Count(SynthStmt::kPayloadOp);
        break;
      case StmtKind::kAssignState:
        Count(SynthStmt::kStateScalarOp);
        break;
      case StmtKind::kAssignStateArr:
        Count(SynthStmt::kStateArrayOp);
        break;
      case StmtKind::kIf: {
        Count(SynthStmt::kIf);
        ++ifs_;
        const Expr& c = *s.e0;
        if (c.kind == ExprKind::kCompare && !c.args.empty() &&
            c.args[0]->kind == ExprKind::kBinary && c.args[0]->op == Opcode::kAnd) {
          ++mask_ifs_;  // the (x & mask) cmp idiom (flag tests)
        }
        MeasureBody(s.body);
        MeasureBody(s.else_body);
        break;
      }
      case StmtKind::kFor:
        Count(SynthStmt::kFor);
        MeasureBody(s.body);
        break;
      case StmtKind::kMapFind:
      case StmtKind::kMapErase:
        Count(SynthStmt::kMapFind);
        break;
      case StmtKind::kMapInsert:
        Count(SynthStmt::kMapInsert);
        break;
      case StmtKind::kApiCall:
      case StmtKind::kSend:
      case StmtKind::kDrop:
        Count(SynthStmt::kApiCall);
        break;
      case StmtKind::kReturn:
        break;
    }
    for (const Expr* e : {s.e0.get(), s.e1.get()}) {
      if (e != nullptr) {
        MeasureExpr(*e);
      }
    }
    for (const auto& a : s.args) {
      MeasureExpr(*a);
    }
  }

  SynthProfile profile_;
  int leaves_ = 0;
  int local_leaves_ = 0;
  int ifs_ = 0;
  int mask_ifs_ = 0;
  int muls_ = 0;
  int bigconst_muls_ = 0;
};

// ---- Generation ----

class Generator {
 public:
  Generator(Rng& rng, const SynthOptions& opts, int index)
      : rng_(rng), opts_(opts), p_(opts.profile) {
    prog_.name = "synth_" + std::to_string(index);
  }

  Program Run() {
    if (p_.click_shaped) {
      GenState();
      // Preamble mirroring real elements: header API + field reads.
      prog_.body.push_back(Api("ip_header"));
      if (rng_.NextBool(0.6)) {
        prog_.body.push_back(Api("tcp_header"));
      }
      DeclareLocal(Type::kI32, PktField("ip.src"));
      DeclareLocal(Type::kI32, PktField("ip.dst"));
    } else {
      // Generic mode: seed a few plain locals instead of packet state.
      DeclareLocal(Type::kI32, Lit(rng_.NextBounded(1000)));
      DeclareLocal(Type::kI32, Lit(rng_.NextBounded(1000)));
      DeclareLocal(Type::kI64, Lit(rng_.NextU64() & 0xffff));
    }

    int n = std::max(opts_.min_stmts,
                     static_cast<int>(p_.avg_body_len * (0.5 + rng_.NextDouble())));
    for (int i = 0; i < n; ++i) {
      auto s = GenStmt(0);
      if (s != nullptr) {
        prog_.body.push_back(std::move(s));
      }
    }
    prog_.body.push_back(Send(Lit(0)));
    return std::move(prog_);
  }

 private:
  std::string NewLocal() { return "t" + std::to_string(next_local_++); }

  std::string DeclareLocal(Type t, ExprPtr init) {
    std::string name = NewLocal();
    locals_.emplace_back(name, t);
    prog_.body.push_back(Decl(name, t, std::move(init)));
    return name;
  }

  void GenState() {
    if (!rng_.NextBool(p_.stateful_prob)) {
      return;
    }
    int scalars = static_cast<int>(
        std::round(p_.scalar_state_avg * (0.5 + rng_.NextDouble())));
    for (int i = 0; i < scalars; ++i) {
      StateDecl d;
      d.name = "g" + std::to_string(i);
      d.kind = StateKind::kScalar;
      d.elem_type = rng_.NextBool(p_.scalar_i64_frac) ? Type::kI64 : Type::kI32;
      prog_.state.push_back(d);
    }
    if (rng_.NextBool(p_.array_state_prob)) {
      StateDecl d;
      d.name = "tbl";
      d.kind = StateKind::kArray;
      d.elem_type = Type::kI32;
      d.length = 1u << rng_.NextInt(4, 10);
      prog_.state.push_back(d);
    }
    if (rng_.NextBool(p_.map_state_prob)) {
      StateDecl d;
      d.name = "fmap";
      d.kind = StateKind::kMap;
      d.key_fields = rng_.NextBool(0.5)
                         ? std::vector<Type>{Type::kI32, Type::kI32}
                         : std::vector<Type>{Type::kI32};
      int vals = static_cast<int>(rng_.NextInt(1, 3));
      for (int i = 0; i < vals; ++i) {
        d.value_fields.push_back({"v" + std::to_string(i), Type::kI32});
      }
      d.capacity = 1u << rng_.NextInt(6, 12);
      d.impl = MapImpl::kNicFixedBucket;
      prog_.state.push_back(d);
    }
  }

  const StateDecl* FindStateKind(StateKind k) {
    for (const auto& s : prog_.state) {
      if (s.kind == k) {
        return &s;
      }
    }
    return nullptr;
  }

  std::string WeightedField() {
    if (p_.field_weights.size() == kNumPacketFields) {
      return std::string(kPacketFields[rng_.NextWeighted(p_.field_weights)].name);
    }
    return std::string(kPacketFields[rng_.NextBounded(kNumPacketFields)].name);
  }

  ExprPtr GenGenericLeaf() {
    if (!locals_.empty() && rng_.NextBool(0.55)) {
      return Local(locals_[rng_.NextBounded(locals_.size())].first);
    }
    return Lit(rng_.NextBounded(1u << rng_.NextBounded(20)));
  }

  ExprPtr GenLeaf() {
    if (!p_.click_shaped) {
      return GenGenericLeaf();
    }
    // Locals dominate leaf expressions in real elements (values are staged
    // through temporaries); honor the measured density.
    if (!locals_.empty() && rng_.NextBool(p_.local_leaf_prob)) {
      return Local(locals_[rng_.NextBounded(locals_.size())].first);
    }
    switch (rng_.NextBounded(3)) {
      case 0:
        return Lit(rng_.NextBounded(256));
      case 1:
        return PktField(WeightedField());
      default: {
        const StateDecl* sc = FindStateKind(StateKind::kScalar);
        if (sc != nullptr) {
          return StateRef(sc->name);
        }
        return PktField(WeightedField());
      }
    }
  }

  ExprPtr GenExpr(int depth) {
    double leaf_prob = depth >= 3 ? 1.0 : 0.4;
    if (rng_.NextBool(leaf_prob)) {
      return GenLeaf();
    }
    Opcode op = OpFromIndex(rng_.NextWeighted(p_.op_weights));
    ExprPtr lhs = GenExpr(depth + 1);
    ExprPtr rhs;
    if (op == Opcode::kShl || op == Opcode::kLShr) {
      rhs = Lit(rng_.NextInt(1, 15));
    } else if (op == Opcode::kUDiv) {
      rhs = Lit(rng_.NextInt(1, 255));
    } else if (op == Opcode::kMul && rng_.NextBool(p_.mul_bigconst_prob)) {
      rhs = Lit(rng_.NextU64() & 0xffffffffULL);  // hashing-style constant
    } else {
      rhs = GenExpr(depth + 1);
    }
    return Bin(op, std::move(lhs), std::move(rhs));
  }

  ExprPtr GenCond() {
    if (rng_.NextBool(p_.mask_test_prob)) {
      // The flag-test idiom: (x & mask) != 0.
      ExprPtr masked = Bin(Opcode::kAnd, GenLeaf(), Lit(1ULL << rng_.NextBounded(8)));
      return Cmp(Opcode::kIcmpNe, std::move(masked), Lit(0));
    }
    static const Opcode kCmps[] = {Opcode::kIcmpEq, Opcode::kIcmpNe, Opcode::kIcmpUlt,
                                   Opcode::kIcmpUgt};
    return Cmp(kCmps[rng_.NextBounded(4)], GenExpr(2), Lit(rng_.NextBounded(256)));
  }

  std::vector<StmtPtr> GenBody(int depth, int len) {
    std::vector<StmtPtr> body;
    for (int i = 0; i < len; ++i) {
      auto s = GenStmt(depth);
      if (s != nullptr) {
        body.push_back(std::move(s));
      }
    }
    if (body.empty()) {
      body.push_back(Assign(EnsureLocal(), GenExpr(2)));
    }
    return body;
  }

  // Guarantees at least one assignable local exists and returns one. Loop
  // variables (named "i...") are excluded: assigning to a live induction
  // variable could make a generated loop effectively unbounded.
  std::string EnsureLocal() {
    std::vector<const std::string*> assignable;
    for (const auto& [name, type] : locals_) {
      if (name.empty() || name[0] != 'i') {
        assignable.push_back(&name);
      }
    }
    if (assignable.empty()) {
      std::string name = NewLocal();
      locals_.emplace_back(name, Type::kI32);
      // Note: declaration goes to the top-level body to dominate all uses.
      prog_.body.insert(prog_.body.begin(), Decl(name, Type::kI32, Lit(0)));
      return name;
    }
    return *assignable[rng_.NextBounded(assignable.size())];
  }

  StmtPtr GenStmt(int depth) {
    SynthStmt kind = static_cast<SynthStmt>(rng_.NextWeighted(p_.stmt_weights));
    if (!p_.click_shaped) {
      // Generic programs know nothing of packets or NF state.
      switch (kind) {
        case SynthStmt::kArith:
        case SynthStmt::kIf:
        case SynthStmt::kFor:
          break;
        default:
          kind = rng_.NextBool(0.6) ? SynthStmt::kArith
                                    : (rng_.NextBool(0.5) ? SynthStmt::kIf : SynthStmt::kFor);
          break;
      }
    }
    switch (kind) {
      case SynthStmt::kArith: {
        // Initializer first: it must not reference the new local itself.
        ExprPtr init = GenExpr(1);
        std::string name = NewLocal();
        locals_.emplace_back(name, Type::kI32);
        return Decl(name, Type::kI32, std::move(init));
      }
      case SynthStmt::kPacketRead: {
        std::string name = NewLocal();
        locals_.emplace_back(name, Type::kI32);
        return Decl(name, Type::kI32, PktField(WeightedField()));
      }
      case SynthStmt::kPacketWrite: {
        static const char* kWritable[] = {"ip.ttl", "ip.tos", "tcp.sport", "tcp.dport",
                                          "ip.dst", "ip.src", "tcp.seq"};
        return AssignPkt(kWritable[rng_.NextBounded(7)], GenExpr(1));
      }
      case SynthStmt::kStateScalarOp: {
        const StateDecl* sc = FindStateKind(StateKind::kScalar);
        if (sc == nullptr) {
          return Assign(EnsureLocal(), GenExpr(1));
        }
        return AssignState(sc->name,
                           Bin(Opcode::kAdd, StateRef(sc->name), GenExpr(2)));
      }
      case SynthStmt::kStateArrayOp: {
        const StateDecl* arr = FindStateKind(StateKind::kArray);
        if (arr == nullptr) {
          return Assign(EnsureLocal(), GenExpr(1));
        }
        ExprPtr idx = Bin(Opcode::kAnd, GenExpr(2), Lit(arr->length - 1));
        return AssignStateAt(arr->name, std::move(idx),
                             Bin(Opcode::kAdd, StateAt(arr->name, Bin(Opcode::kAnd, GenExpr(2),
                                                                      Lit(arr->length - 1))),
                                 Lit(1)));
      }
      case SynthStmt::kIf: {
        if (depth >= opts_.max_depth) {
          return Assign(EnsureLocal(), GenExpr(1));
        }
        // Generate strictly in checker traversal order (cond, then, else) so
        // locals declared in one part are never referenced by an earlier one.
        ExprPtr cond = GenCond();
        int len = 1 + static_cast<int>(rng_.NextBounded(3));
        std::vector<StmtPtr> then_body = GenBody(depth + 1, len);
        std::vector<StmtPtr> else_body;
        if (rng_.NextBool(0.4)) {
          else_body = GenBody(depth + 1, 1);
        }
        return If(std::move(cond), std::move(then_body), std::move(else_body));
      }
      case SynthStmt::kFor: {
        if (depth >= opts_.max_depth) {
          return Assign(EnsureLocal(), GenExpr(1));
        }
        std::string var = "i" + std::to_string(next_local_++);
        locals_.emplace_back(var, Type::kI32);
        return For(var, Lit(0), Lit(rng_.NextInt(2, 12)), GenBody(depth + 1, 2));
      }
      case SynthStmt::kMapFind: {
        const StateDecl* map = FindStateKind(StateKind::kMap);
        if (map == nullptr) {
          return Assign(EnsureLocal(), GenExpr(1));
        }
        std::vector<ExprPtr> keys;
        for (size_t k = 0; k < map->key_fields.size(); ++k) {
          keys.push_back(k == 0 ? PktField("ip.src") : PktField("ip.dst"));
        }
        std::string found = "f" + std::to_string(next_local_++);
        std::vector<std::string> outs;
        for (size_t v = 0; v < map->value_fields.size() && v < 2; ++v) {
          std::string out = "o" + std::to_string(next_local_++);
          locals_.emplace_back(out, map->value_fields[v].type);
          outs.push_back(out);
        }
        locals_.emplace_back(found, Type::kI8);
        return MapFind(map->name, std::move(keys), found, std::move(outs));
      }
      case SynthStmt::kMapInsert: {
        const StateDecl* map = FindStateKind(StateKind::kMap);
        if (map == nullptr) {
          return Assign(EnsureLocal(), GenExpr(1));
        }
        std::vector<ExprPtr> keys;
        for (size_t k = 0; k < map->key_fields.size(); ++k) {
          keys.push_back(k == 0 ? PktField("ip.src") : PktField("ip.dst"));
        }
        std::vector<ExprPtr> vals;
        for (size_t v = 0; v < map->value_fields.size(); ++v) {
          vals.push_back(GenExpr(2));
        }
        return MapInsert(map->name, std::move(keys), std::move(vals));
      }
      case SynthStmt::kApiCall: {
        static const char* kApis[] = {"checksum_update", "tcp_header", "ip_header"};
        return Api(kApis[rng_.NextBounded(3)]);
      }
      case SynthStmt::kPayloadOp: {
        ExprPtr idx = Bin(Opcode::kAnd, GenExpr(2), Lit(63));
        ExprPtr mix = Bin(Opcode::kXor, PayloadAt(std::move(idx)), GenExpr(2));
        std::string name = NewLocal();
        locals_.emplace_back(name, Type::kI32);
        return Decl(name, Type::kI32, std::move(mix));
      }
    }
    return nullptr;
  }

  Rng& rng_;
  const SynthOptions& opts_;
  const SynthProfile& p_;
  Program prog_;
  std::vector<std::pair<std::string, Type>> locals_;
  int next_local_ = 0;
};

}  // namespace

SynthProfile MeasureCorpus(const std::vector<const Program*>& corpus) {
  return Measurer().Run(corpus);
}

SynthProfile UniformProfile() {
  SynthProfile p;
  p.field_weights.assign(kNumPacketFields, 1.0);
  p.avg_body_len = 10;
  p.scalar_state_avg = 1.5;
  p.array_state_prob = 0.5;
  p.map_state_prob = 0.5;
  p.stateful_prob = 0.6;
  return p;
}

SynthProfile GenericProfile() {
  SynthProfile p = UniformProfile();
  p.click_shaped = false;
  p.stateful_prob = 0;
  p.avg_body_len = 12;
  return p;
}

Program SynthesizeProgram(Rng& rng, const SynthOptions& opts, int index) {
  return Generator(rng, opts, index).Run();
}

std::vector<Program> SynthesizeCorpus(size_t n, const SynthOptions& opts, uint64_t seed) {
  std::vector<Program> out;
  out.reserve(n);
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(SynthesizeProgram(rng, opts, static_cast<int>(i)));
  }
  return out;
}

void SaveSynthProfile(BinWriter& w, const SynthProfile& p) {
  w.U16(0x5350);  // "SP"
  w.VecF64(p.stmt_weights);
  w.VecF64(p.op_weights);
  w.VecF64(p.field_weights);
  w.F64(p.avg_body_len);
  w.F64(p.nest_prob);
  w.F64(p.scalar_state_avg);
  w.F64(p.array_state_prob);
  w.F64(p.map_state_prob);
  w.F64(p.stateful_prob);
  w.F64(p.scalar_i64_frac);
  w.F64(p.local_leaf_prob);
  w.F64(p.mask_test_prob);
  w.F64(p.mul_bigconst_prob);
  w.Bool(p.click_shaped);
}

bool LoadSynthProfile(BinReader& r, SynthProfile* out) {
  if (r.U16() != 0x5350) {
    r.Fail("synth profile: bad section tag");
    return false;
  }
  SynthProfile p;
  r.VecF64(&p.stmt_weights);
  r.VecF64(&p.op_weights);
  r.VecF64(&p.field_weights);
  p.avg_body_len = r.F64();
  p.nest_prob = r.F64();
  p.scalar_state_avg = r.F64();
  p.array_state_prob = r.F64();
  p.map_state_prob = r.F64();
  p.stateful_prob = r.F64();
  p.scalar_i64_frac = r.F64();
  p.local_leaf_prob = r.F64();
  p.mask_test_prob = r.F64();
  p.mul_bigconst_prob = r.F64();
  p.click_shaped = r.Bool();
  if (!r.ok()) {
    return false;
  }
  if (p.stmt_weights.size() != static_cast<size_t>(kNumSynthStmts) ||
      p.op_weights.size() != 9) {
    r.Fail("synth profile: unexpected weight vector dimensions");
    return false;
  }
  *out = std::move(p);
  return true;
}

}  // namespace clara
