#include "src/lang/check.h"

#include <map>

#include "src/ir/packet_fields.h"

namespace clara {
namespace {

class Checker {
 public:
  explicit Checker(Program& p) : p_(p) {}

  CheckResult Run() {
    CheckResult r;
    for (auto& s : p_.body) {
      CheckStmt(*s);
    }
    r.errors = std::move(errors_);
    r.ok = r.errors.empty();
    for (const auto& name : local_order_) {
      r.locals.push_back(LocalInfo{name, locals_.at(name)});
    }
    return r;
  }

 private:
  void Error(const std::string& msg) { errors_.push_back(msg); }

  void DeclareLocal(const std::string& name, Type t) {
    if (locals_.find(name) == locals_.end()) {
      locals_[name] = t;
      local_order_.push_back(name);
    }
  }

  Type LocalType(const std::string& name) {
    auto it = locals_.find(name);
    if (it == locals_.end()) {
      Error("use of undeclared local '" + name + "'");
      DeclareLocal(name, Type::kI32);
      return Type::kI32;
    }
    return it->second;
  }

  const StateDecl* State(const std::string& name, StateKind want) {
    const StateDecl* s = p_.FindState(name);
    if (s == nullptr) {
      Error("unknown state '" + name + "'");
      return nullptr;
    }
    if (s->kind != want) {
      Error("state '" + name + "' has wrong kind for this operation");
      return nullptr;
    }
    return s;
  }

  Type CheckExpr(Expr& e) {
    switch (e.kind) {
      case ExprKind::kIntLit:
        return e.type;
      case ExprKind::kLocal:
        e.type = LocalType(e.name);
        return e.type;
      case ExprKind::kStateScalar: {
        const StateDecl* s = State(e.name, StateKind::kScalar);
        e.type = s != nullptr ? s->elem_type : Type::kI32;
        return e.type;
      }
      case ExprKind::kStateArray: {
        const StateDecl* s = State(e.name, StateKind::kArray);
        CheckExpr(*e.args[0]);
        e.type = s != nullptr ? s->elem_type : Type::kI32;
        return e.type;
      }
      case ExprKind::kPacketField: {
        int field = FindPacketFieldIndex(e.name);
        if (field < 0) {
          Error("unknown packet field '" + e.name + "'");
          e.type = Type::kI32;
          return e.type;
        }
        e.type = kPacketFields[field].type;
        return e.type;
      }
      case ExprKind::kPayloadByte:
        CheckExpr(*e.args[0]);
        e.type = Type::kI8;
        return e.type;
      case ExprKind::kBinary: {
        Type a = CheckExpr(*e.args[0]);
        Type b = CheckExpr(*e.args[1]);
        e.type = BitWidth(a) >= BitWidth(b) ? a : b;
        if (e.type == Type::kI1) {
          e.type = Type::kI8;
        }
        return e.type;
      }
      case ExprKind::kCompare:
        CheckExpr(*e.args[0]);
        CheckExpr(*e.args[1]);
        e.type = Type::kI1;
        return e.type;
      case ExprKind::kCast:
        CheckExpr(*e.args[0]);
        return e.type;
      case ExprKind::kCall:
        for (auto& a : e.args) {
          CheckExpr(*a);
        }
        return e.type;
    }
    return Type::kI32;
  }

  void CheckBody(std::vector<StmtPtr>& body) {
    for (auto& s : body) {
      CheckStmt(*s);
    }
  }

  void CheckStmt(Stmt& s) {
    switch (s.kind) {
      case StmtKind::kDecl:
        if (s.e0) {
          CheckExpr(*s.e0);
        }
        DeclareLocal(s.name, s.type);
        break;
      case StmtKind::kAssignLocal:
        CheckExpr(*s.e0);
        LocalType(s.name);
        break;
      case StmtKind::kAssignState: {
        CheckExpr(*s.e0);
        State(s.name, StateKind::kScalar);
        break;
      }
      case StmtKind::kAssignStateArr:
        CheckExpr(*s.e0);
        CheckExpr(*s.e1);
        State(s.name, StateKind::kArray);
        break;
      case StmtKind::kAssignPacket: {
        CheckExpr(*s.e0);
        int field = FindPacketFieldIndex(s.name);
        if (field < 0) {
          Error("unknown packet field '" + s.name + "'");
        } else if (!kPacketFields[field].writable) {
          Error("packet field '" + s.name + "' is read-only");
        }
        break;
      }
      case StmtKind::kAssignPayload:
        CheckExpr(*s.e0);
        CheckExpr(*s.e1);
        break;
      case StmtKind::kIf:
        CheckExpr(*s.e0);
        CheckBody(s.body);
        CheckBody(s.else_body);
        break;
      case StmtKind::kFor:
        DeclareLocal(s.name, Type::kI32);
        CheckExpr(*s.e0);
        CheckExpr(*s.e1);
        CheckBody(s.body);
        break;
      case StmtKind::kMapFind: {
        const StateDecl* m = State(s.name, StateKind::kMap);
        for (auto& k : s.args) {
          CheckExpr(*k);
        }
        if (m != nullptr) {
          if (s.args.size() != m->key_fields.size()) {
            Error("map '" + s.name + "' find: wrong number of key fields");
          }
          if (s.outs.size() > m->value_fields.size()) {
            Error("map '" + s.name + "' find: too many output fields");
          }
          for (size_t i = 0; i < s.outs.size(); ++i) {
            DeclareLocal(s.outs[i], m->value_fields[i].type);
          }
        }
        if (!s.found_local.empty()) {
          DeclareLocal(s.found_local, Type::kI8);
        }
        break;
      }
      case StmtKind::kMapInsert: {
        const StateDecl* m = State(s.name, StateKind::kMap);
        for (auto& a : s.args) {
          CheckExpr(*a);
        }
        if (m != nullptr &&
            s.args.size() != m->key_fields.size() + m->value_fields.size()) {
          Error("map '" + s.name + "' insert: wrong number of fields");
        }
        break;
      }
      case StmtKind::kMapErase: {
        const StateDecl* m = State(s.name, StateKind::kMap);
        for (auto& a : s.args) {
          CheckExpr(*a);
        }
        if (m != nullptr && s.args.size() != m->key_fields.size()) {
          Error("map '" + s.name + "' erase: wrong number of key fields");
        }
        break;
      }
      case StmtKind::kApiCall:
        for (auto& a : s.args) {
          CheckExpr(*a);
        }
        break;
      case StmtKind::kSend:
        if (s.e0) {
          CheckExpr(*s.e0);
        }
        break;
      case StmtKind::kDrop:
      case StmtKind::kReturn:
        break;
    }
  }

  Program& p_;
  std::vector<std::string> errors_;
  std::map<std::string, Type> locals_;
  std::vector<std::string> local_order_;
};

}  // namespace

CheckResult CheckProgram(Program& p) { return Checker(p).Run(); }

}  // namespace clara
