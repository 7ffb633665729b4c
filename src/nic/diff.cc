#include "src/nic/diff.h"

#include <cstdio>
#include <sstream>
#include <string_view>

#include "src/ir/packet_fields.h"
#include "src/lang/interp.h"
#include "src/nic/backend.h"
#include "src/nic/exec.h"

namespace clara {
namespace {

// Runs one packet through an NfEnv-based runner, applying the interpreter's
// default verdict (pending -> sent).
template <typename Runner>
bool RunEnvPacket(Runner& runner, NfEnv& env, const Packet& in, Packet* out,
                  std::string* err) {
  Packet p = in;
  p.verdict = Packet::Verdict::kPending;
  PacketToEnv(p, env);
  if (!runner.RunPacket(env)) {
    *err = runner.error();
    return false;
  }
  if (env.verdict == Packet::Verdict::kPending) {
    env.verdict = Packet::Verdict::kSent;
  }
  EnvToPacket(env, *out);
  return true;
}

const char* VerdictName(Packet::Verdict v) {
  switch (v) {
    case Packet::Verdict::kPending: return "pending";
    case Packet::Verdict::kSent: return "sent";
    case Packet::Verdict::kDropped: return "dropped";
  }
  return "?";
}

// Compares the AST interpreter's state against an NfEnv state image,
// field by field at the declared widths.
std::string CompareAstState(NfInstance& inst, const NfEnv& env,
                            const std::string& env_name) {
  const Module& m = inst.module();
  std::ostringstream oss;
  for (size_t sym = 0; sym < m.state.size(); ++sym) {
    const StateVar& sv = m.state[sym];
    const StateDecl* d = inst.program().FindState(sv.name);
    if (sv.kind == StateKind::kScalar) {
      uint64_t a = inst.ReadScalar(sv.name);
      uint64_t b = env.StateRead(static_cast<uint32_t>(sym), 0, 0,
                                 BitWidth(sv.elem_type));
      if (a != b) {
        oss << "state " << sv.name << ": ast=" << a << " " << env_name << "=" << b;
        return oss.str();
      }
    } else if (sv.kind == StateKind::kArray) {
      for (uint32_t k = 0; k < sv.length; ++k) {
        uint64_t a = inst.ReadArray(sv.name, k);
        uint64_t b = env.StateRead(static_cast<uint32_t>(sym), k, 0,
                                   BitWidth(sv.elem_type));
        if (a != b) {
          oss << "state " << sv.name << "[" << k << "]: ast=" << a << " "
              << env_name << "=" << b;
          return oss.str();
        }
      }
    } else if (sv.kind == StateKind::kMap && d != nullptr) {
      SimMap* sm = inst.FindMap(sv.name);
      if (sm == nullptr) {
        continue;
      }
      // Intra-element field offsets mirror the lowering: keys packed first,
      // then values, each at the cumulative width of its predecessors.
      std::vector<int32_t> key_off, val_off;
      int32_t off = 0;
      for (Type t : d->key_fields) {
        key_off.push_back(off);
        off += BitWidth(t) / 8;
      }
      int32_t kb = static_cast<int32_t>(d->KeyBytes());
      off = kb;
      for (const ValueField& vf : d->value_fields) {
        val_off.push_back(off);
        off += BitWidth(vf.type) / 8;
      }
      for (size_t s = 0; s < sm->slot_count(); ++s) {
        uint64_t ak0 = sm->KeyAt(s, 0);
        uint64_t bk0 = env.StateRead(static_cast<uint32_t>(sym), s, key_off[0],
                                     BitWidth(d->key_fields[0]));
        if (ak0 != bk0) {
          oss << "map " << sv.name << " slot " << s << " key0: ast=" << ak0
              << " " << env_name << "=" << bk0;
          return oss.str();
        }
        if (ak0 == 0) {
          continue;  // empty slot on both sides; residue is unobservable
        }
        for (size_t k = 1; k < d->key_fields.size(); ++k) {
          uint64_t a = sm->KeyAt(s, k);
          uint64_t b = env.StateRead(static_cast<uint32_t>(sym), s, key_off[k],
                                     BitWidth(d->key_fields[k]));
          if (a != b) {
            oss << "map " << sv.name << " slot " << s << " key" << k
                << ": ast=" << a << " " << env_name << "=" << b;
            return oss.str();
          }
        }
        for (size_t v = 0; v < d->value_fields.size(); ++v) {
          uint64_t a = sm->ValueAt(s, v);
          uint64_t b = env.StateRead(static_cast<uint32_t>(sym), s, val_off[v],
                                     BitWidth(d->value_fields[v].type));
          if (a != b) {
            oss << "map " << sv.name << " slot " << s << " value " << v
                << ": ast=" << a << " " << env_name << "=" << b;
            return oss.str();
          }
        }
      }
    }
  }
  return "";
}

}  // namespace

std::string ComparePackets(const Packet& a, const Packet& b,
                           const std::string& a_name, const std::string& b_name) {
  std::ostringstream oss;
  auto diff = [&](std::string_view field, uint64_t av, uint64_t bv) {
    oss << field << ": " << a_name << "=" << av << " " << b_name << "=" << bv;
    return oss.str();
  };
  if (a.verdict != b.verdict) {
    oss << "verdict: " << a_name << "=" << VerdictName(a.verdict) << " "
        << b_name << "=" << VerdictName(b.verdict);
    return oss.str();
  }
  if (a.out_port != b.out_port) return diff("out_port", a.out_port, b.out_port);
  // Every field a program can change, in table order; read-only metadata
  // cannot diverge.
  for (const PacketFieldDef& f : kPacketFields) {
    if (f.writable) {
      uint64_t av = LoadPacketMember(a, f);
      uint64_t bv = LoadPacketMember(b, f);
      if (av != bv) {
        return diff(f.name, av, bv);
      }
    }
  }
  for (int i = 0; i < kMaxPayloadPrefix; ++i) {
    if (a.payload[i] != b.payload[i]) {
      oss << "payload[" << i << "]: " << a_name << "="
          << static_cast<int>(a.payload[i]) << " " << b_name << "="
          << static_cast<int>(b.payload[i]);
      return oss.str();
    }
  }
  return "";
}

DiffResult RunDifferential(const Program& prog, const std::vector<Packet>& packets) {
  DiffResult res;
  NfInstance inst(CloneProgram(prog), /*seed=*/1);
  if (!inst.ok()) {
    res.setup_failed = true;
    res.detail = "lowering failed: " + inst.error();
    return res;
  }
  const Module& m = inst.module();
  if (m.functions.empty()) {
    res.setup_failed = true;
    res.detail = "no functions in module";
    return res;
  }
  const Function& f = m.functions[0];
  NicProgram np = CompileToNic(m, f);

  IrRefInterpreter ir(m, f);
  NicExecutor nic(m, np);
  NfEnv ir_env, nic_env;
  ir_env.InitState(m, &prog.state);
  nic_env.InitState(m, &prog.state);

  for (size_t i = 0; i < packets.size(); ++i) {
    Packet pa = packets[i];
    pa.verdict = Packet::Verdict::kPending;
    inst.Process(pa);

    Packet pi, pn;
    std::string err;
    if (!RunEnvPacket(ir, ir_env, packets[i], &pi, &err)) {
      res.detail = "ir interpreter error: " + err;
      res.packet_index = static_cast<int>(i);
      return res;
    }
    if (!RunEnvPacket(nic, nic_env, packets[i], &pn, &err)) {
      res.detail = "nic executor error: " + err;
      res.packet_index = static_cast<int>(i);
      return res;
    }

    std::string d = ComparePackets(pa, pi, "ast", "ir");
    if (d.empty()) {
      d = ComparePackets(pa, pn, "ast", "nic");
    }
    if (!d.empty()) {
      res.detail = d;
      res.packet_index = static_cast<int>(i);
      return res;
    }
    ++res.packets_run;
  }

  // Final-state cross-check: AST vs IR image (field-wise), then IR vs NIC
  // images (byte-for-byte — both are the same layout by construction).
  std::string d = CompareAstState(inst, ir_env, "ir");
  if (d.empty() && ir_env.state != nic_env.state) {
    for (size_t sym = 0; sym < ir_env.state.size(); ++sym) {
      if (ir_env.state[sym] != nic_env.state[sym]) {
        d = "state image mismatch (ir vs nic) for " + m.state[sym].name;
        break;
      }
    }
  }
  if (d.empty() && ir_env.flow_cache != nic_env.flow_cache) {
    d = "flow cache mismatch (ir vs nic)";
  }
  if (!d.empty()) {
    res.detail = d;
    return res;
  }
  res.ok = true;
  return res;
}

}  // namespace clara
