#include "src/lang/interp.h"

#include <algorithm>
#include <cassert>

#include "src/ir/packet_fields.h"
#include "src/nf/checksum.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"

namespace clara {
namespace {

uint64_t Mask(uint64_t v, Type t) {
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

// API argument buffer: every argument is evaluated, the APIs read at most
// the first two.
constexpr size_t kApiArgs = 2;

}  // namespace

NfApi NfApiByName(std::string_view name) {
  struct Entry {
    std::string_view name;
    NfApi api;
  };
  static constexpr Entry kApis[] = {
      {"checksum_update", NfApi::kChecksum}, {"csum_hw", NfApi::kChecksum},
      {"send", NfApi::kSend},                {"drop", NfApi::kDrop},
      {"crc_hash_hw", NfApi::kCrcHash},      {"crc32_hw", NfApi::kCrc32},
      {"lpm_hw", NfApi::kLpm},               {"flow_cache_get", NfApi::kFlowCacheGet},
      {"flow_cache_put", NfApi::kFlowCachePut}, {"rand", NfApi::kRand},
  };
  for (const Entry& e : kApis) {
    if (e.name == name) {
      return e.api;
    }
  }
  return NfApi::kNone;
}

SimMap::SimMap(const StateDecl& decl)
    : nkeys_(decl.key_fields.size()),
      nvals_(decl.value_fields.size()),
      nic_(decl.impl == MapImpl::kNicFixedBucket),
      spb_(decl.slots_per_bucket == 0 ? 1 : decl.slots_per_bucket) {
  if (nic_) {
    buckets_ = (decl.capacity + spb_ - 1) / spb_;
    if (buckets_ == 0) {
      buckets_ = 1;
    }
    slot_count_ = static_cast<size_t>(buckets_) * spb_;
  } else {
    buckets_ = 0;
    slot_count_ = decl.capacity == 0 ? 1 : decl.capacity;
  }
  zero_row_.assign(nkeys_ + nvals_, 0);
}

size_t SimMap::IndexPos(uint64_t slot) const {
  size_t mask = index_.size() - 1;
  size_t pos = static_cast<size_t>((slot * 0x9E3779B97F4A7C15ULL) >> 32) & mask;
  while (index_[pos].slot_plus1 != 0 && index_[pos].slot_plus1 != slot + 1) {
    pos = (pos + 1) & mask;
  }
  return pos;
}

const uint64_t* SimMap::Row(uint64_t slot) const {
  if (index_.empty()) {
    return zero_row_.data();
  }
  const IndexEntry& e = index_[IndexPos(slot)];
  return e.slot_plus1 == 0 ? zero_row_.data() : &rows_[e.row * zero_row_.size()];
}

uint64_t* SimMap::MutableRow(uint64_t slot) {
  size_t stride = zero_row_.size();
  size_t nrows = rows_.size() / std::max<size_t>(stride, 1);
  if (!index_.empty()) {
    const IndexEntry& e = index_[IndexPos(slot)];
    if (e.slot_plus1 != 0) {
      return &rows_[e.row * stride];
    }
  }
  // Keep the index at most half full: grow (and rehash) before inserting.
  if (2 * (nrows + 1) > index_.size()) {
    std::vector<IndexEntry> old = std::move(index_);
    index_.assign(std::max<size_t>(16, old.size() * 2), IndexEntry{0, 0});
    for (const IndexEntry& e : old) {
      if (e.slot_plus1 != 0) {
        index_[IndexPos(e.slot_plus1 - 1)] = e;
      }
    }
  }
  index_[IndexPos(slot)] = IndexEntry{slot + 1, static_cast<uint32_t>(nrows)};
  rows_.resize(rows_.size() + stride, 0);
  return &rows_[nrows * stride];
}

SimMap::Probe SimMap::StartProbe(std::span<const uint64_t> keys) const {
  uint32_t h = MapFieldHash(keys.data(), keys.size());
  if (nic_) {
    return Probe{static_cast<uint64_t>(h % buckets_) * spb_, spb_};
  }
  return Probe{h % slot_count_, static_cast<uint32_t>(slot_count_)};
}

uint64_t SimMap::Advance(uint64_t idx) const {
  return nic_ ? idx + 1 : (idx + 1) % slot_count_;
}

bool SimMap::KeyMatches(const uint64_t* row, std::span<const uint64_t> keys) const {
  for (size_t i = 0; i < nkeys_; ++i) {
    if (row[i] != keys[i]) {
      return false;
    }
  }
  return true;
}

SimMap::OpResult SimMap::Find(std::span<const uint64_t> keys, uint64_t* values_out) {
  OpResult r;
  Probe p = StartProbe(keys);
  uint64_t idx = p.start;
  for (uint32_t n = 0; n < p.bound; ++n) {
    ++r.probes;
    const uint64_t* row = Row(idx);
    if (KeyMatches(row, keys)) {
      r.found = true;
      r.index = idx;
      if (values_out != nullptr) {
        std::copy_n(row + nkeys_, nvals_, values_out);
      }
      return r;
    }
    if (row[0] == 0) {
      r.stopped_empty = true;
      return r;
    }
    ++r.continues;
    idx = Advance(idx);
  }
  r.exhausted = true;
  return r;
}

SimMap::OpResult SimMap::Insert(std::span<const uint64_t> keys,
                                std::span<const uint64_t> values) {
  OpResult r;
  Probe p = StartProbe(keys);
  uint64_t idx = p.start;
  for (uint32_t n = 0; n < p.bound; ++n) {
    ++r.probes;
    const uint64_t* row = Row(idx);
    bool match = KeyMatches(row, keys);
    bool empty = row[0] == 0;
    if (match || empty) {
      if (empty && !match) {
        r.stopped_empty = true;
        ++entries_;
      }
      uint64_t* out = MutableRow(idx);
      std::copy_n(keys.begin(), nkeys_, out);
      for (size_t i = 0; i < nvals_ && i < values.size(); ++i) {
        out[nkeys_ + i] = values[i];
      }
      r.found = true;
      r.index = idx;
      return r;
    }
    ++r.continues;
    idx = Advance(idx);
  }
  r.exhausted = true;  // structure full: baremetal insert fails
  return r;
}

SimMap::OpResult SimMap::Erase(std::span<const uint64_t> keys) {
  OpResult r;
  Probe p = StartProbe(keys);
  uint64_t idx = p.start;
  for (uint32_t n = 0; n < p.bound; ++n) {
    ++r.probes;
    const uint64_t* row = Row(idx);
    if (KeyMatches(row, keys)) {
      if (row[0] != 0) {
        MutableRow(idx)[0] = 0;  // mark invalid only (paper §3.3)
      }
      r.found = true;
      r.index = idx;
      if (entries_ > 0) {
        --entries_;
      }
      return r;
    }
    if (row[0] == 0) {
      r.stopped_empty = true;
      return r;
    }
    ++r.continues;
    idx = Advance(idx);
  }
  r.exhausted = true;
  return r;
}

void SimMap::Clear() {
  rows_.clear();
  index_.clear();
  entries_ = 0;
}

NfInstance::NfInstance(Program program, uint64_t seed)
    : program_(std::move(program)), rng_(seed) {
  LowerResult lr = LowerProgram(program_);
  if (!lr.ok) {
    error_ = lr.error;
    return;
  }
  module_ = std::move(lr.module);
  ok_ = true;
  for (auto& s : program_.body) {
    Resolve(*s);
  }
  size_t scratch = 0;
  for (const StateDecl& d : program_.state) {
    if (d.kind == StateKind::kMap) {
      scratch = std::max(scratch, d.key_fields.size() + d.value_fields.size());
    }
  }
  map_scratch_.assign(scratch, 0);
  locals_.assign(module_.functions[0].slots.size(), 0);
  arrays_.resize(program_.state.size());
  maps_.resize(program_.state.size());
  ResetState();
  ResetProfile();
}

int32_t NfInstance::SlotOf(const std::string& local) const {
  const auto& slots = module_.functions[0].slots;
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].name == local) {
      return static_cast<int32_t>(i);
    }
  }
  return -1;
}

int32_t NfInstance::InternApi(const std::string& name) {
  for (size_t i = 0; i < apis_.size(); ++i) {
    if (apis_[i].name == name) {
      return static_cast<int32_t>(i);
    }
  }
  apis_.push_back(ApiEntry{name, NfApiByName(name)});
  return static_cast<int32_t>(apis_.size() - 1);
}

void NfInstance::Resolve(Expr& e) {
  switch (e.kind) {
    case ExprKind::kLocal:
      e.ref = SlotOf(e.name);
      break;
    case ExprKind::kStateScalar:
    case ExprKind::kStateArray:
      e.ref = module_.FindState(e.name);
      break;
    case ExprKind::kPacketField: {
      // A bare pkt.payload reference resolves to nothing and reads as 0.
      int field = FindPacketFieldIndex(e.name);
      e.ref = field >= 0 && kPacketFields[field].kind != PacketFieldKind::kPayload ? field : -1;
      break;
    }
    case ExprKind::kCall:
      e.ref = InternApi(e.callee);
      break;
    default:
      break;
  }
  for (auto& a : e.args) {
    Resolve(*a);
  }
}

void NfInstance::Resolve(Stmt& s) {
  switch (s.kind) {
    case StmtKind::kDecl:
    case StmtKind::kAssignLocal:
    case StmtKind::kFor:
      s.ref = SlotOf(s.name);
      break;
    case StmtKind::kAssignState:
    case StmtKind::kAssignStateArr:
    case StmtKind::kMapInsert:
    case StmtKind::kMapErase:
      s.ref = module_.FindState(s.name);
      break;
    case StmtKind::kMapFind:
      s.ref = module_.FindState(s.name);
      s.out_refs.clear();
      for (const auto& out : s.outs) {
        s.out_refs.push_back(SlotOf(out));
      }
      s.found_ref = s.found_local.empty() ? -1 : SlotOf(s.found_local);
      break;
    case StmtKind::kAssignPacket: {
      // The checker rejects read-only fields; a payload field has no
      // scalar member to store into.
      int field = FindPacketFieldIndex(s.name);
      s.ref = field >= 0 && kPacketFields[field].writable ? field : -1;
      break;
    }
    case StmtKind::kApiCall:
      s.ref = InternApi(s.callee);
      break;
    case StmtKind::kSend:
      s.ref = InternApi("send");
      break;
    case StmtKind::kDrop:
      s.ref = InternApi("drop");
      break;
    default:
      break;
  }
  for (Expr* e : {s.e0.get(), s.e1.get()}) {
    if (e != nullptr) {
      Resolve(*e);
    }
  }
  for (auto& a : s.args) {
    Resolve(*a);
  }
  for (auto& b : s.body) {
    Resolve(*b);
  }
  for (auto& b : s.else_body) {
    Resolve(*b);
  }
}

void NfInstance::ResetState() {
  for (size_t i = 0; i < program_.state.size(); ++i) {
    const StateDecl& d = program_.state[i];
    switch (d.kind) {
      case StateKind::kScalar:
        arrays_[i].assign(1, d.init.empty() ? 0 : d.init[0]);
        break;
      case StateKind::kArray:
        arrays_[i].assign(d.length, 0);
        for (size_t k = 0; k < d.init.size() && k < d.length; ++k) {
          arrays_[i][k] = d.init[k];
        }
        break;
      case StateKind::kMap:
        maps_[i] = std::make_unique<SimMap>(d);
        break;
    }
  }
  flow_cache_.clear();
}

void NfInstance::ResetProfile() {
  profile_ = NfProfile{};
  size_t nblocks = module_.functions[0].blocks.size();
  size_t nvars = module_.state.size();
  profile_.block_exec.assign(nblocks, 0);
  profile_.state_reads.assign(nvars, 0);
  profile_.state_writes.assign(nvars, 0);
  profile_.block_var_access.assign(nblocks, std::vector<uint64_t>(nvars, 0));
  api_counts_.assign(apis_.size(), 0);
}

const NfProfile& NfInstance::profile() const {
  profile_.api_calls.clear();
  for (size_t i = 0; i < apis_.size(); ++i) {
    if (api_counts_[i] > 0) {
      profile_.api_calls[apis_[i].name] = api_counts_[i];
    }
  }
  return profile_;
}

void NfInstance::RecordStateRead(int sym, int block, uint64_t n) {
  profile_.state_reads[sym] += n;
  if (block >= 0) {
    profile_.block_var_access[block][sym] += n;
  }
}

void NfInstance::RecordStateWrite(int sym, int block, uint64_t n) {
  profile_.state_writes[sym] += n;
  if (block >= 0) {
    profile_.block_var_access[block][sym] += n;
  }
}

void NfInstance::SetLocal(int32_t slot, uint64_t v) {
  if (slot >= 0) {
    locals_[slot] = Mask(v, module_.functions[0].slots[slot].type);
  }
}

size_t NfInstance::EvalArgs(const std::vector<ExprPtr>& exprs, int block, uint64_t* args) {
  size_t n = 0;
  for (const auto& a : exprs) {
    uint64_t v = EvalExpr(*a, block);
    if (n < kApiArgs) {
      args[n] = v;
    }
    ++n;
  }
  return n;
}

uint64_t NfInstance::CallApi(int32_t id, const uint64_t* args, size_t nargs) {
  ++api_counts_[id];
  NfApi api = apis_[id].api;
  if (obs::Enabled() && obs_api_calls_ != nullptr) {
    obs_api_calls_->Add(1);
    if (obs_drops_ != nullptr && api == NfApi::kDrop) {
      obs_drops_->Add(1);
    }
  }
  Packet& p = *pkt_;
  switch (api) {
    case NfApi::kNone:
      return 0;
    case NfApi::kChecksum:
      p.ip_checksum = Ipv4HeaderChecksum(p);
      return p.ip_checksum;
    case NfApi::kSend:
      p.verdict = Packet::Verdict::kSent;
      p.out_port = nargs == 0 ? 0 : static_cast<uint16_t>(args[0]);
      ++profile_.sends;
      return 0;
    case NfApi::kDrop:
      p.verdict = Packet::Verdict::kDropped;
      ++profile_.drops;
      return 0;
    case NfApi::kCrcHash: {
      uint64_t key = nargs == 0 ? 0 : args[0];
      uint8_t bytes[8];
      for (int i = 0; i < 8; ++i) {
        bytes[i] = static_cast<uint8_t>(key >> (8 * i));
      }
      return Crc32Bitwise(bytes, 8);
    }
    case NfApi::kCrc32: {
      int len = p.PayloadPrefixLen();
      if (nargs > 0 && args[0] < static_cast<uint64_t>(len)) {
        len = static_cast<int>(args[0]);
      }
      return Crc32Bitwise(p.payload.data(), static_cast<size_t>(len));
    }
    case NfApi::kLpm:
      if (lpm_accel_ != nullptr && nargs > 0) {
        auto hop = lpm_accel_->Lookup(static_cast<uint32_t>(args[0]));
        return hop.has_value() ? *hop + 1 : 0;
      }
      return 0;
    case NfApi::kFlowCacheGet: {
      auto it = flow_cache_.find(nargs == 0 ? 0 : args[0]);
      return it == flow_cache_.end() ? 0 : it->second + 1;
    }
    case NfApi::kFlowCachePut:
      if (nargs >= 2) {
        flow_cache_[args[0]] = args[1];
      }
      return 0;
    case NfApi::kRand:
      return rng_.NextU64() & 0xffffffffULL;
  }
  return 0;
}

uint64_t NfInstance::EvalExpr(const Expr& e, int block) {
  switch (e.kind) {
    case ExprKind::kIntLit:
      return Mask(e.value, e.type);
    case ExprKind::kLocal:
      return e.ref >= 0 ? locals_[e.ref] : 0;
    case ExprKind::kStateScalar:
      RecordStateRead(e.ref, block);
      return Mask(arrays_[e.ref][0], e.type);
    case ExprKind::kStateArray: {
      uint64_t idx = EvalExpr(*e.args[0], block);
      RecordStateRead(e.ref, block);
      const auto& arr = arrays_[e.ref];
      return arr.empty() ? 0 : Mask(arr[idx % arr.size()], e.type);
    }
    case ExprKind::kPacketField:
      return e.ref >= 0 ? Mask(LoadPacketMember(*pkt_, kPacketFields[e.ref]), e.type) : 0;
    case ExprKind::kPayloadByte: {
      uint64_t idx = EvalExpr(*e.args[0], block);
      return pkt_->payload[idx % kMaxPayloadPrefix];
    }
    case ExprKind::kBinary: {
      uint64_t a = EvalExpr(*e.args[0], block);
      uint64_t b = EvalExpr(*e.args[1], block);
      uint64_t r = 0;
      int w = BitWidth(e.type);
      switch (e.op) {
        case Opcode::kAdd: r = a + b; break;
        case Opcode::kSub: r = a - b; break;
        case Opcode::kMul: r = a * b; break;
        case Opcode::kUDiv: r = b == 0 ? 0 : a / b; break;
        case Opcode::kURem: r = b == 0 ? 0 : a % b; break;
        case Opcode::kAnd: r = a & b; break;
        case Opcode::kOr: r = a | b; break;
        case Opcode::kXor: r = a ^ b; break;
        case Opcode::kShl: r = a << (b & (w - 1)); break;
        case Opcode::kLShr: r = a >> (b & (w - 1)); break;
        case Opcode::kAShr: {
          // Arithmetic shift within the type width.
          uint64_t sign_bit = 1ULL << (w - 1);
          uint64_t sa = b & (w - 1);
          r = a >> sa;
          if (a & sign_bit) {
            r |= ~((1ULL << (w - static_cast<int>(sa))) - 1);
          }
          break;
        }
        default: r = 0; break;
      }
      return Mask(r, e.type);
    }
    case ExprKind::kCompare: {
      uint64_t a = EvalExpr(*e.args[0], block);
      uint64_t b = EvalExpr(*e.args[1], block);
      switch (e.op) {
        case Opcode::kIcmpEq: return a == b;
        case Opcode::kIcmpNe: return a != b;
        case Opcode::kIcmpUlt: return a < b;
        case Opcode::kIcmpUle: return a <= b;
        case Opcode::kIcmpUgt: return a > b;
        case Opcode::kIcmpUge: return a >= b;
        default: return 0;
      }
    }
    case ExprKind::kCast:
      return Mask(EvalExpr(*e.args[0], block), e.type);
    case ExprKind::kCall: {
      uint64_t args[kApiArgs] = {};
      size_t nargs = EvalArgs(e.args, block, args);
      return Mask(CallApi(e.ref, args, nargs), e.type);
    }
  }
  return 0;
}

void NfInstance::AttributeMapOp(const Stmt& s, const SimMap::OpResult& r, size_t nkeys,
                                size_t value_reads, size_t value_writes, int sym) {
  auto bump = [this](int block, uint64_t n) {
    if (block >= 0 && n > 0) {
      profile_.block_exec[block] += n;
    }
  };
  bump(s.block_cond, r.probes + (r.exhausted ? 1 : 0));
  bump(s.block_body, r.probes);
  // echk runs on every probe that did not match (a hit skips it once).
  uint64_t early_hit = (r.found && !r.exhausted) ? 1 : 0;
  bump(s.block_echk, r.probes >= early_hit ? r.probes - early_hit : 0);
  bump(s.block_latch, r.continues);
  bump(s.block_hit, r.found ? 1 : 0);
  bump(s.block_miss, r.found ? 0 : 1);

  // Probe-loop key loads.
  if (s.block_body >= 0) {
    RecordStateRead(sym, s.block_body, static_cast<uint64_t>(r.probes) * nkeys);
  }
  if (r.found) {
    if (value_reads > 0) {
      RecordStateRead(sym, s.block_hit, value_reads);
    }
    if (value_writes > 0) {
      RecordStateWrite(sym, s.block_hit, value_writes);
    }
  }
}

void NfInstance::EvalMapFields(const Stmt& s, const StateDecl& d, size_t nvalues) {
  size_t nkeys = d.key_fields.size();
  for (size_t i = 0; i < nkeys; ++i) {
    map_scratch_[i] = Mask(EvalExpr(*s.args[i], s.block), d.key_fields[i]);
  }
  for (size_t j = 0; j < nvalues; ++j) {
    map_scratch_[nkeys + j] =
        Mask(EvalExpr(*s.args[nkeys + j], s.block), d.value_fields[j].type);
  }
}

NfInstance::Flow NfInstance::ExecBody(const std::vector<StmtPtr>& body) {
  for (const auto& s : body) {
    if (ExecStmt(*s) == Flow::kReturned) {
      return Flow::kReturned;
    }
  }
  return Flow::kNormal;
}

NfInstance::Flow NfInstance::ExecStmt(const Stmt& s) {
  if (s.block_entry && s.block >= 0) {
    ++profile_.block_exec[s.block];
  }
  switch (s.kind) {
    case StmtKind::kDecl:
    case StmtKind::kAssignLocal:
      SetLocal(s.ref, EvalExpr(*s.e0, s.block));
      return Flow::kNormal;
    case StmtKind::kAssignState: {
      uint64_t v = EvalExpr(*s.e0, s.block);
      arrays_[s.ref][0] = Mask(v, module_.state[s.ref].elem_type);
      RecordStateWrite(s.ref, s.block);
      return Flow::kNormal;
    }
    case StmtKind::kAssignStateArr: {
      uint64_t idx = EvalExpr(*s.e1, s.block);
      uint64_t v = EvalExpr(*s.e0, s.block);
      auto& arr = arrays_[s.ref];
      if (!arr.empty()) {
        arr[idx % arr.size()] = Mask(v, module_.state[s.ref].elem_type);
      }
      RecordStateWrite(s.ref, s.block);
      return Flow::kNormal;
    }
    case StmtKind::kAssignPacket: {
      uint64_t v = EvalExpr(*s.e0, s.block);
      if (s.ref >= 0) {
        StorePacketMember(*pkt_, kPacketFields[s.ref], v);
      }
      return Flow::kNormal;
    }
    case StmtKind::kAssignPayload: {
      uint64_t idx = EvalExpr(*s.e1, s.block);
      uint64_t v = EvalExpr(*s.e0, s.block);
      pkt_->payload[idx % kMaxPayloadPrefix] = static_cast<uint8_t>(v);
      return Flow::kNormal;
    }
    case StmtKind::kIf: {
      uint64_t c = EvalExpr(*s.e0, s.block);
      return c != 0 ? ExecBody(s.body) : ExecBody(s.else_body);
    }
    case StmtKind::kFor: {
      int32_t var = s.ref;
      uint64_t lo = EvalExpr(*s.e0, s.block);
      uint64_t iters = 0;
      locals_[var] = Mask(lo, Type::kI32);
      while (true) {
        if (s.block_cond >= 0) {
          ++profile_.block_exec[s.block_cond];
        }
        uint64_t hi = EvalExpr(*s.e1, s.block_cond);
        if (locals_[var] >= hi) {
          break;
        }
        Flow f = ExecBody(s.body);
        if (f == Flow::kReturned) {
          return f;
        }
        if (s.block_latch >= 0) {
          ++profile_.block_exec[s.block_latch];
        }
        locals_[var] = Mask(locals_[var] + 1, Type::kI32);
        ++iters;
        if (iters > 1u << 16) {
          break;  // runaway-loop backstop (NF loops are small by construction)
        }
      }
      return Flow::kNormal;
    }
    case StmtKind::kMapFind: {
      const StateDecl& d = program_.state[s.ref];
      size_t nkeys = d.key_fields.size();
      EvalMapFields(s, d, 0);
      uint64_t* values = map_scratch_.data() + nkeys;
      auto r = maps_[s.ref]->Find({map_scratch_.data(), nkeys}, values);
      AttributeMapOp(s, r, nkeys, s.outs.size(), 0, s.ref);
      if (r.found) {
        for (size_t j = 0; j < s.out_refs.size(); ++j) {
          SetLocal(s.out_refs[j], values[j]);
        }
      }
      SetLocal(s.found_ref, r.found ? 1 : 0);
      return Flow::kNormal;
    }
    case StmtKind::kMapInsert: {
      const StateDecl& d = program_.state[s.ref];
      size_t nkeys = d.key_fields.size();
      size_t nvalues = d.value_fields.size();
      EvalMapFields(s, d, nvalues);
      auto r = maps_[s.ref]->Insert({map_scratch_.data(), nkeys},
                                    {map_scratch_.data() + nkeys, nvalues});
      AttributeMapOp(s, r, nkeys, 0, nkeys + nvalues, s.ref);
      return Flow::kNormal;
    }
    case StmtKind::kMapErase: {
      const StateDecl& d = program_.state[s.ref];
      size_t nkeys = d.key_fields.size();
      EvalMapFields(s, d, 0);
      auto r = maps_[s.ref]->Erase({map_scratch_.data(), nkeys});
      AttributeMapOp(s, r, nkeys, 0, r.found ? 1 : 0, s.ref);
      return Flow::kNormal;
    }
    case StmtKind::kApiCall: {
      uint64_t args[kApiArgs] = {};
      size_t nargs = EvalArgs(s.args, s.block, args);
      CallApi(s.ref, args, nargs);
      return Flow::kNormal;
    }
    case StmtKind::kSend: {
      uint64_t port = s.e0 ? EvalExpr(*s.e0, s.block) : 0;
      CallApi(s.ref, &port, s.e0 ? 1 : 0);
      return Flow::kReturned;
    }
    case StmtKind::kDrop:
      CallApi(s.ref, nullptr, 0);
      return Flow::kReturned;
    case StmtKind::kReturn:
      return Flow::kReturned;
  }
  return Flow::kNormal;
}

void NfInstance::Process(Packet& pkt) {
  assert(ok_);
  pkt_ = &pkt;
  ++profile_.packets;
  if (obs::Enabled()) {
    if (obs_packets_ == nullptr) {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
      std::string base = "lang.interp." + module_.name;
      obs_packets_ = &reg.GetCounter(base + ".packets");
      obs_api_calls_ = &reg.GetCounter(base + ".api_calls");
      obs_drops_ = &reg.GetCounter(base + ".drops");
    }
    obs_packets_->Add(1);
  }
  std::fill(locals_.begin(), locals_.end(), 0);
  ExecBody(program_.body);
  if (pkt.verdict == Packet::Verdict::kPending) {
    pkt.verdict = Packet::Verdict::kSent;  // default: pass through
  }
  pkt_ = nullptr;
}

uint64_t NfInstance::ReadScalar(const std::string& name) const {
  int sym = module_.FindState(name);
  return sym >= 0 ? arrays_[sym][0] : 0;
}

uint64_t NfInstance::ReadArray(const std::string& name, size_t index) const {
  int sym = module_.FindState(name);
  if (sym < 0 || arrays_[sym].empty()) {
    return 0;
  }
  return arrays_[sym][index % arrays_[sym].size()];
}

SimMap* NfInstance::FindMap(const std::string& name) {
  int sym = module_.FindState(name);
  return sym >= 0 ? maps_[sym].get() : nullptr;
}

}  // namespace clara
