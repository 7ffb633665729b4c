// Instruction-level executor for the simulated SmartNIC ISA.
//
// Historically the NIC backend emitted cost-only instruction streams: enough
// for the performance model, but nothing could ever *run* a compiled NF.
// This header adds the missing execution layer, three pieces deep:
//
//  - NfEnv: the runtime environment a packet-processing program mutates — a
//    byte-accurate packet image (wire header layout + payload prefix), byte
//    images for every NF state variable (scalars, arrays, map backing
//    stores), packet metadata, accelerator backends (CRC, checksum, LPM,
//    flow cache) and the packet verdict. The environment is deliberately
//    shared between the IR reference interpreter and the ISA executor so
//    that the differential fuzzer (src/nic/diff.h) can compare final state
//    byte-for-byte.
//  - IrRefInterpreter: reference semantics for the lowered IR. This is the
//    "middle" rung of the differential tower: AST interpreter (src/lang)
//    vs lowered IR vs compiled ISA.
//  - NicExecutor: executes a backend-compiled NicProgram — register file,
//    condition flag, zero-cost move sidecars, shared-memory accesses against
//    the NfEnv images, and CSR-triggered accelerator calls.
//
// Memory model: the simulated NIC exposes the packet image as CTM (cluster
// target memory, per-packet), NF state as IMEM/EMEM (shared), promoted
// stack slots as GPRs, and spilled slots as per-thread local memory. In this
// executor all of them resolve to NfEnv byte images or the register file;
// the address-space tag on each instruction says which.
#ifndef SRC_NIC_EXEC_H_
#define SRC_NIC_EXEC_H_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/ir/ir.h"
#include "src/ir/packet_fields.h"
#include "src/lang/ast.h"
#include "src/nf/lpm.h"
#include "src/nf/packet.h"
#include "src/nic/isa.h"
#include "src/util/rng.h"

namespace clara {

// Size of the logical wire image: headers (src/ir/packet_fields.h) followed
// by the materialized payload prefix.
inline constexpr int kNicPacketImageBytes = kWireHeaderBytes + kMaxPayloadPrefix;

// Runtime environment one packet is processed against.
struct NfEnv {
  const Module* module = nullptr;

  // Byte image of the packet's wire view; header fields live at their
  // wire offsets (src/ir/packet_fields.h), little-endian, payload at
  // kWireHeaderBytes.
  std::array<uint8_t, kNicPacketImageBytes> pkt{};

  // Packet metadata (pseudo-fields not in the wire image), kept in the
  // Packet members the field table names; only those members are used.
  Packet meta;

  // Verdict tracking (send/drop APIs).
  Packet::Verdict verdict = Packet::Verdict::kPending;
  uint16_t out_port = 0;
  uint64_t sends = 0;
  uint64_t drops = 0;

  // Per-state-var byte images: ElementCount() * ElementBytes() bytes each,
  // element-major, fields little-endian at their intra-element offsets.
  std::vector<std::vector<uint8_t>> state;

  // Accelerator backends.
  Rng rng{1};
  std::map<uint64_t, uint64_t> flow_cache;
  const LpmTable* lpm = nullptr;

  // Sizes the state images for `m` and zero-fills them; `decls` (optional)
  // supplies initial scalar/array contents exactly like NfInstance
  // ResetState.
  void InitState(const Module& m, const std::vector<StateDecl>* decls);

  // Framework API semantics (NfApi, src/lang/interp.h), mirroring the AST
  // interpreter.
  uint64_t CallApi(const std::string& name, const std::vector<uint64_t>& args);

  // Raw little-endian field access into a state image (element index is
  // wrapped modulo the element count, like the AST's `idx % size`).
  uint64_t StateRead(uint32_t sym, uint64_t elem, int32_t off, int bits) const;
  void StateWrite(uint32_t sym, uint64_t elem, int32_t off, int bits, uint64_t v);

  // Packet image / metadata access by packet-field symbol. `dyn` is the
  // payload byte index (wrapped modulo kMaxPayloadPrefix) for pkt.payload;
  // `has_dyn` distinguishes indexed payload accesses from a bare pkt.payload
  // field reference, which the AST interpreter defines as 0 / no-op.
  uint64_t PacketRead(uint32_t sym, uint64_t dyn, bool has_dyn = true) const;
  void PacketWrite(uint32_t sym, uint64_t dyn, uint64_t v, bool has_dyn = true);
};

// Copies a parsed packet into the environment's image + metadata, resetting
// the verdict.
void PacketToEnv(const Packet& p, NfEnv& env);
// Reads the environment back into a parsed packet (inverse of PacketToEnv).
void EnvToPacket(const NfEnv& env, Packet& p);

// Masks `v` to the width of `t` (kI64 passes through).
uint64_t MaskToType(uint64_t v, Type t);

// Reference interpreter for the lowered IR: executes function `f` of the
// module against `env` for one packet.
class IrRefInterpreter {
 public:
  IrRefInterpreter(const Module& m, const Function& f);

  // Returns false (with error() set) on a malformed program or when the
  // step budget is exhausted.
  bool RunPacket(NfEnv& env);

  const std::string& error() const { return error_; }
  uint64_t steps() const { return steps_; }

 private:
  uint64_t Eval(const Value& v) const;

  const Module& m_;
  const Function& f_;
  std::map<uint32_t, Type> reg_types_;
  std::vector<uint64_t> regs_;
  std::vector<uint64_t> slots_;
  std::string error_;
  uint64_t steps_ = 0;
};

// Executes a backend-compiled NIC program against an NfEnv.
class NicExecutor {
 public:
  NicExecutor(const Module& m, const NicProgram& prog);

  // Runs one packet through the compiled program. Returns false (with
  // error() set) on an unexecutable instruction or exhausted step budget.
  bool RunPacket(NfEnv& env);

  const std::string& error() const { return error_; }
  uint64_t steps() const { return steps_; }

  // Executed-instruction histogram by opcode, accumulated across packets;
  // the opcode-coverage test asserts every backend-emittable opcode lands
  // here at least once.
  const std::array<uint64_t, 16>& op_histogram() const { return op_hist_; }

 private:
  uint64_t Eval(const NicRef& r) const;
  void SetReg(uint32_t reg, uint64_t v, Type t);
  bool Exec(const NicInstr& i, NfEnv& env, bool* jumped, uint32_t* next);

  const Module& m_;
  const NicProgram& prog_;
  std::unordered_map<uint32_t, uint64_t> regs_;
  bool flag_ = false;
  std::string error_;
  uint64_t steps_ = 0;
  std::array<uint64_t, 16> op_hist_{};
};

}  // namespace clara

#endif  // SRC_NIC_EXEC_H_
