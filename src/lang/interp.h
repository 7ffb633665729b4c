// Trace-driven NF interpreter.
//
// Executes an NF program AST against packets, maintaining real NF state
// (scalars, arrays, and probe-accurate hash maps) and recording the
// workload-specific profile that Clara's porting-strategy analyses consume:
// per-IR-block execution counts, per-state-variable access frequencies, and
// the (block x variable) access matrix used for coalescing (§4.4).
//
// The interpreter's map semantics (SimMap) implement exactly the probe loops
// the lowering expands (src/lang/lower.cc), so execution counts attach to IR
// blocks with symmetric control flow — the reverse-porting fidelity property
// of paper §3.3.
#ifndef SRC_LANG_INTERP_H_
#define SRC_LANG_INTERP_H_

#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/lang/ast.h"
#include "src/lang/lower.h"
#include "src/nf/lpm.h"
#include "src/nf/packet.h"
#include "src/util/rng.h"

namespace clara {

namespace obs {
class Counter;
}  // namespace obs

// A hash map with the probe behaviour of the lowered IR: bounded scan,
// key0 == 0 means empty, NIC variant probes within a fixed bucket, host
// variant probes linearly with wraparound.
//
// Slots are stored sparsely: a row (keys then values) exists only for a slot
// that was ever written, and an untouched slot reads as all zeros. Building
// a map therefore costs nothing in its capacity (mazunat declares 32k-slot
// tables), and its memory grows with the slots a workload touches.
class SimMap {
 public:
  explicit SimMap(const StateDecl& decl);

  struct OpResult {
    bool found = false;      // find: hit; insert: slot written; erase: entry removed
    uint32_t probes = 0;     // probe-body executions
    uint32_t continues = 0;  // latch executions
    bool exhausted = false;  // probe bound reached without stopping
    bool stopped_empty = false;
    uint64_t index = 0;      // slot index on found
  };

  // `keys` holds num_keys() values. A hit copies num_values() values to
  // `values_out` (if not null); insert stores the first num_values() of
  // `values`.
  OpResult Find(std::span<const uint64_t> keys, uint64_t* values_out);
  OpResult Insert(std::span<const uint64_t> keys, std::span<const uint64_t> values);
  OpResult Erase(std::span<const uint64_t> keys);

  size_t entries() const { return entries_; }
  size_t slot_count() const { return slot_count_; }
  void Clear();

  // Slot-level inspection for the differential harness (src/nic/diff.h),
  // which compares SimMap contents field-by-field against the lowered
  // backing-store byte image.
  size_t num_keys() const { return nkeys_; }
  size_t num_values() const { return nvals_; }
  uint64_t KeyAt(size_t slot, size_t k) const { return Row(slot)[k]; }
  uint64_t ValueAt(size_t slot, size_t v) const { return Row(slot)[nkeys_ + v]; }

 private:
  struct Probe {
    uint64_t start;
    uint32_t bound;
  };
  // One index entry: slot + 1 (0 marks a free entry) and its row number.
  struct IndexEntry {
    uint64_t slot_plus1;
    uint32_t row;
  };
  Probe StartProbe(std::span<const uint64_t> keys) const;
  uint64_t Advance(uint64_t idx) const;
  bool KeyMatches(const uint64_t* row, std::span<const uint64_t> keys) const;
  // Index position of `slot`: its entry, or the free entry it would take.
  size_t IndexPos(uint64_t slot) const;
  // The slot's row; the shared zero row when the slot was never written.
  const uint64_t* Row(uint64_t slot) const;
  // The slot's row, created zeroed on first write. Valid until the next call.
  uint64_t* MutableRow(uint64_t slot);

  size_t nkeys_;
  size_t nvals_;
  bool nic_;
  uint32_t spb_;
  uint32_t buckets_;
  size_t slot_count_;
  size_t entries_ = 0;
  std::vector<uint64_t> zero_row_;   // nkeys_ + nvals_ zeros
  std::vector<uint64_t> rows_;       // written rows, (nkeys_ + nvals_) words each
  std::vector<IndexEntry> index_;    // open-addressed slot -> row; size 0 or 2^k
};

// Workload-specific execution profile.
struct NfProfile {
  uint64_t packets = 0;
  uint64_t sends = 0;
  uint64_t drops = 0;
  std::vector<uint64_t> block_exec;                    // [ir block]
  std::vector<uint64_t> state_reads;                   // [state var]
  std::vector<uint64_t> state_writes;                  // [state var]
  std::vector<std::vector<uint64_t>> block_var_access; // [ir block][state var]
  std::map<std::string, uint64_t> api_calls;           // by callee name

  uint64_t StateAccesses(size_t var) const { return state_reads[var] + state_writes[var]; }
};

// Framework API semantics shared by the AST interpreter and the NIC
// executor's environment (src/nic/exec.h). Any name without an entry here
// (including the ip_header/tcp_header/udp_header/payload views) is kNone:
// counted, no effect, returns 0.
enum class NfApi : uint8_t {
  kNone,
  kChecksum,      // checksum_update, csum_hw
  kSend,
  kDrop,
  kCrcHash,       // crc_hash_hw
  kCrc32,         // crc32_hw
  kLpm,           // lpm_hw
  kFlowCacheGet,  // flow_cache_get
  kFlowCachePut,  // flow_cache_put
  kRand,
};

NfApi NfApiByName(std::string_view name);

// An executable NF: owns the program, its lowered IR module, and its state.
//
// Building the instance lowers the program and then resolves every name in
// its AST once: locals to stack-slot indices, state names to symbols,
// packet fields to kPacketFields indices and API callees to ids. Process()
// works on those indices only.
class NfInstance {
 public:
  // Takes ownership of `program`; lowers and resolves it immediately.
  explicit NfInstance(Program program, uint64_t seed = 1);

  bool ok() const { return ok_; }
  const std::string& error() const { return error_; }

  const Program& program() const { return program_; }
  const Module& module() const { return module_; }

  // Runs the handler on one packet, mutating it (header writes, verdict).
  void Process(Packet& pkt);

  // The profile so far; api_calls is filled from per-id counters here.
  const NfProfile& profile() const;
  void ResetProfile();

  // Resets all NF state (maps, scalars, arrays) to initial values.
  void ResetState();

  // Test/inspection hooks.
  uint64_t ReadScalar(const std::string& name) const;
  uint64_t ReadArray(const std::string& name, size_t index) const;
  SimMap* FindMap(const std::string& name);

  // Table backing the lpm_hw accelerator API (iplookup's ported form).
  void SetLpmAccelTable(const LpmTable* table) { lpm_accel_ = table; }

 private:
  enum class Flow { kNormal, kReturned };

  // One interned API callee: its profile name and its semantics.
  struct ApiEntry {
    std::string name;
    NfApi api;
  };

  void Resolve(Expr& e);
  void Resolve(Stmt& s);
  int32_t SlotOf(const std::string& local) const;
  int32_t InternApi(const std::string& name);

  uint64_t EvalExpr(const Expr& e, int block);
  Flow ExecStmt(const Stmt& s);
  Flow ExecBody(const std::vector<StmtPtr>& body);
  void SetLocal(int32_t slot, uint64_t v);
  // Evaluates every argument in order, keeping the first two (all any API
  // reads) in `args`; returns the argument count.
  size_t EvalArgs(const std::vector<ExprPtr>& exprs, int block, uint64_t* args);
  uint64_t CallApi(int32_t id, const uint64_t* args, size_t nargs);
  // Loads the key (then value) expressions of a map statement into
  // map_scratch_, masked to the map's field types.
  void EvalMapFields(const Stmt& s, const StateDecl& d, size_t nvalues);

  void RecordStateRead(int sym, int block, uint64_t n = 1);
  void RecordStateWrite(int sym, int block, uint64_t n = 1);
  void AttributeMapOp(const Stmt& s, const SimMap::OpResult& r, size_t nkeys,
                      size_t value_reads, size_t value_writes, int sym);

  Program program_;
  Module module_;
  bool ok_ = false;
  std::string error_;

  std::vector<uint64_t> locals_;               // by stack-slot index
  std::vector<std::vector<uint64_t>> arrays_;  // per state var (scalars: size 1)
  std::vector<std::unique_ptr<SimMap>> maps_;  // per state var (null if not map)

  std::vector<ApiEntry> apis_;               // by API id
  std::vector<uint64_t> api_counts_;         // by API id
  std::vector<uint64_t> map_scratch_;        // keys then values of one map op

  mutable NfProfile profile_;  // api_calls is derived in profile()
  // Cached telemetry handles (lang.interp.<element>.*), resolved on first
  // use with telemetry enabled; see src/obs/metrics.h for handle stability.
  obs::Counter* obs_packets_ = nullptr;
  obs::Counter* obs_api_calls_ = nullptr;
  obs::Counter* obs_drops_ = nullptr;
  Packet* pkt_ = nullptr;
  Rng rng_;
  const LpmTable* lpm_accel_ = nullptr;
  std::map<uint64_t, uint64_t> flow_cache_;  // accelerator-backed flow cache
};

}  // namespace clara

#endif  // SRC_LANG_INTERP_H_
