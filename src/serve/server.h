// The Clara insight-serving engine: a long-lived, in-process service that
// answers insight requests from a pre-trained bundle — the train-once /
// serve-many split.
//
// Architecture:
//   * Bounded request queue with admission control: Submit() fails fast with
//     kQueueFull instead of queueing unboundedly, and answers kShutdown once
//     Stop() has begun so no promise is ever abandoned.
//   * Per-request deadlines: a request that expires while queued is answered
//     with kDeadlineExceeded without being dispatched; one that finishes late
//     still succeeds but bumps the serve.deadline.overruns counter.
//   * Batching: the dispatcher drains up to max_batch requests, resolves
//     them and probes the cache, then runs the batch's misses in one
//     parallel phase, one miss per pool worker: lower, look up the
//     program's facts (prediction, accelerator class, NIC block costs) in
//     the snapshot's program memo or compute and insert them, run the
//     workload part of the analysis, encode, cache put and fulfil. The
//     dispatcher itself stays single, so brownout and the backend switch
//     change only between batches.
//   * LRU result cache keyed by (program content hash, workload hash); a hit
//     replays the cached encoded response body byte-for-byte (only the
//     echoed request id differs), skipping analysis entirely.
//   * Program memo: the LSTM prediction, algorithm identification and NIC
//     compilation read only the NF's code (ClaraAnalyzer::AnalyzeProgram),
//     so a miss on a program already seen under another workload reuses
//     them. The memo is keyed by (program content hash, inference backend),
//     so brownout's backend switch never serves facts computed under another
//     backend; it holds cost-only NIC programs and is bounded by
//     cache_capacity like the result cache (0 disables both).
//   * Hot artifact reload: the trained model lives in an immutable
//     ModelSnapshot behind a mutex-guarded shared_ptr. Reload() builds and
//     canary-validates a candidate entirely off the serving path, then
//     atomically swaps the pointer (the new snapshot brings an empty program
//     memo) and clears the result cache; batches in flight finish on the
//     snapshot they started with (they hold their own shared_ptr), so no
//     request ever sees a half-swapped model. Rejected
//     candidates (untrained, CRC-damaged, canary failure) leave the old
//     snapshot serving. Each successful swap bumps artifact_version().
//   * Brownout degradation: when the rolling SLO window flips degraded, a
//     hysteretic BrownoutPolicy puts the engine in brownout — admitted
//     deadline budgets are halved, the lowest-priority queued requests are
//     shed with kShedded + a retry_after_ms hint, cache misses from the
//     lowest priority class are shed instead of inferred (cache hits always
//     serve), and inference drops to the int8 backend when AVX2 is
//     available. Exit requires the p99 to stay below the threshold for a
//     hold period, preventing enter/exit oscillation.
//   * Instrumented via src/obs: serve.queue.depth, serve.batch.size,
//     serve.cache.{hits,misses}, serve.latency_us (p50/p99), error/overrun
//     counters, serve.program_memo.{hits,misses},
//     serve.reload.{ok,rejected}, serve.brownout.{entered,exited},
//     serve.shedded, plus the fault.* injection counters.
//   * Telemetry plane: every request is traced end to end — per-stage spans
//     (queue wait, program resolution, program facts, analysis, encode)
//     share the request's trace id in the global Chrome-trace sink, and the
//     response carries a per-stage latency breakdown. The serve.infer span
//     and infer_us cover computing program facts, so they read 0 when the
//     program memo answered. A rolling-window SLO tracker (serve.slo.*
//     gauges, --slo-p99-us gate) and a flight recorder of recent requests
//     feed the control-plane Stats/Health/Dump/Reload frames, which
//     HandleControl() answers immediately without queueing.
//
// Malformed requests, unknown elements, expired deadlines, engine shutdown,
// injected faults, and load shedding all degrade to structured error
// responses — the engine never crashes on bad input.
#ifndef SRC_SERVE_SERVER_H_
#define SRC_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/core/analyzer.h"
#include "src/obs/flight.h"
#include "src/obs/slo.h"
#include "src/serve/brownout.h"
#include "src/serve/lru.h"
#include "src/serve/proto.h"

namespace clara {
namespace serve {

struct ServeOptions {
  NicConfig nic;
  size_t queue_capacity = 64;
  size_t max_batch = 8;
  // Entries kept by the result cache, and by the program memo of each model
  // snapshot; 0 disables both.
  size_t cache_capacity = 128;
  // Packets interpreted per request for workload-specific profiling (smaller
  // than the offline default: serving favors latency).
  size_t profile_packets = 2000;
  // LSTM inference backend for batched prediction (src/ml/infer.h). kF64 is
  // the training-time double path; kF32/kInt8 run the packed SIMD engine.
  InferBackend infer_backend = InferBackend::kF64;
  // Rolling-window SLO: when slo_p99_us > 0 and the window p99 exceeds it,
  // Health reports status "degraded" (and serve.slo.degraded flips to 1).
  // The same threshold arms the brownout policy.
  double slo_p99_us = 0;
  int64_t slo_window_ms = 60000;
  // Flight recorder depth (most recent request records kept for Dump).
  size_t flight_capacity = 128;
  // Brownout knobs (active only when slo_p99_us > 0); see BrownoutPolicy.
  double brownout_exit_margin = 0.8;
  int64_t brownout_exit_hold_ms = 2000;
  uint32_t brownout_retry_after_ms = 50;
};

class ServeEngine {
 public:
  explicit ServeEngine(TrainedBundle bundle, ServeOptions opts = ServeOptions{});
  ~ServeEngine();

  ServeEngine(const ServeEngine&) = delete;
  ServeEngine& operator=(const ServeEngine&) = delete;

  // Starts the dispatcher thread. Idempotent; re-arms submission after Stop().
  void Start();
  // Stops the dispatcher; queued-but-unprocessed requests are answered with
  // kShutdown, and so is every Submit() that arrives once shutdown has
  // begun — no promise is ever left unresolved. Idempotent; also called by
  // the destructor.
  void Stop();

  // Asynchronous submission. The future always yields a response — errors
  // included — and resolves immediately with kQueueFull when the bounded
  // queue is at capacity, kShedded when brownout load-shedding rejects it,
  // or kShutdown when the engine is stopping. request_bytes is the wire
  // payload size when the request arrived over a transport (0 for
  // in-process callers); it only feeds the flight recorder.
  std::future<InsightResponse> Submit(InsightRequest req, uint32_t request_bytes = 0);

  // Synchronous convenience: Submit + wait. Works without Start() (processes
  // inline as a batch of one).
  InsightResponse Handle(InsightRequest req, uint32_t request_bytes = 0);

  // Decode a raw request payload, handle it, and encode the response —
  // transport front ends (pipe/socket) call this per frame.
  std::string HandlePayload(std::string_view payload);

  // Structured error response for transport-level failures (e.g. an
  // oversized frame that never yielded a payload).
  static std::string EncodeTransportError(ErrorCode code, const std::string& message);

  // ---- hot reload ----
  // Validates `bundle` (trained components + canary inference) and, on
  // success, atomically swaps it in as the serving model: the result cache
  // is cleared and artifact_version() is bumped. On failure returns false
  // with *error set and the previous model keeps serving untouched.
  // Thread-safe against concurrent request processing; batches in flight
  // finish on the snapshot they captured at dispatch.
  bool Reload(TrainedBundle bundle, std::string* error);
  // Reload from an artifact file (CRC-checked by the artifact store).
  bool ReloadFromFile(const std::string& path, std::string* error);
  // Path used by the control-plane kReload op (the daemon's --model-dir
  // bundle). Empty (default) makes control-plane reloads fail gracefully.
  void SetReloadPath(std::string path);

  // Monotonic model generation: 1 for the construction-time bundle, +1 per
  // successful Reload.
  uint64_t artifact_version() const {
    return artifact_version_.load(std::memory_order_acquire);
  }
  uint64_t reloads_ok() const { return reload_ok_.load(std::memory_order_relaxed); }
  uint64_t reloads_rejected() const {
    return reload_rejected_.load(std::memory_order_relaxed);
  }

  // ---- brownout ----
  bool brownout_active() const {
    return brownout_active_.load(std::memory_order_relaxed);
  }
  uint64_t shedded() const { return shedded_.load(std::memory_order_relaxed); }

  // ---- control plane (answered immediately, never queued) ----
  // A transport front end (the epoll event loop) can register a callback
  // rendering its connection gauges as one JSON object; StatsJson() embeds
  // the result under "transport". Unset (default) omits the key, keeping the
  // pipe/sequential envelopes unchanged.
  void SetTransportStatsProvider(std::function<std::string()> provider);
  // Metrics registry snapshot as one JSON object.
  std::string StatsJson() const;
  // Queue depth, cache and program-memo hit counts, artifact version,
  // uptime, SLO window state.
  std::string HealthJson() const;
  // Flight-recorder contents (most recent requests, oldest first).
  std::string DumpJson() const;
  // Decode a control-request payload and encode the answer; undecodable
  // payloads come back as an ok=false control response.
  std::string HandleControl(std::string_view payload);

  bool running() const { return running_; }
  size_t cache_entries() const { return cache_.size(); }
  // Program facts memoized by the current snapshot.
  size_t program_memo_entries() const { return Model()->program_memo.size(); }
  // The current snapshot's analyzer. In-process/test convenience: the
  // reference is only stable while no concurrent Reload() swaps the model.
  const ClaraAnalyzer& analyzer() const { return Model()->analyzer; }
  const obs::FlightRecorder& flight() const { return flight_; }
  // Rolling SLO window as of now (degraded flag included).
  obs::SloTracker::Window SloWindow() const;

 private:
  using Clock = std::chrono::steady_clock;

  // A serving model: analyzer, the generation it belongs to, and the program
  // facts it computed. Swapped wholesale by Reload(); readers pin it with a
  // shared_ptr copy. While shared, only the memo (under its own lock) and
  // the dispatcher's between-batch backend switch change it.
  struct ModelSnapshot {
    ModelSnapshot(AnalyzerOptions opts, TrainedBundle bundle, uint64_t ver,
                  size_t memo_capacity)
        : analyzer(std::move(opts), std::move(bundle)),
          version(ver),
          program_memo(memo_capacity) {}
    ClaraAnalyzer analyzer;
    uint64_t version;
    // AnalyzeProgram results keyed by (program fingerprint, inference
    // backend).
    LruMap<std::shared_ptr<const ProgramFacts>> program_memo;
  };

  // One named sub-interval of a request's lifetime, recorded while the batch
  // is processed and emitted as a child trace span at fulfillment.
  struct StageSpan {
    const char* name;
    Clock::time_point start;
    Clock::time_point end;
  };

  struct Pending {
    InsightRequest req;
    std::promise<InsightResponse> promise;
    Clock::time_point enqueued;
    Clock::time_point drained;   // when the dispatcher picked it up
    Clock::time_point deadline;  // only meaningful when has_deadline
    bool has_deadline = false;
    bool cache_hit = false;
    uint32_t request_bytes = 0;  // wire payload size (0 for in-process calls)
    std::vector<StageSpan> spans;
  };

  void Loop();
  void ProcessBatch(std::vector<Pending> batch);
  // Fulfills one pending slot: records latency/error/overrun metrics, the
  // SLO window sample and the flight record, attaches the latency breakdown
  // to the response, and emits the request's trace spans. Safe to call from
  // several pool workers at once for distinct slots.
  void Fulfill(Pending& p, InsightResponse resp);

  // Program memo size and hit counts, as one JSON object.
  std::string ProgramMemoJson() const;

  // Pins the current model snapshot.
  std::shared_ptr<ModelSnapshot> Model() const;
  // Validates a candidate bundle off the serving path (trained() + canary
  // inference on a registry element); returns the ready snapshot or null.
  std::shared_ptr<ModelSnapshot> ValidateCandidate(TrainedBundle bundle,
                                                   std::string* error);

  // Dispatcher-only: feeds the SLO window into the brownout policy, applies
  // enter/exit side effects (backend switch, queue shedding), and mirrors
  // the state into the atomics the other threads read.
  void UpdateBrownout();
  // Removes the lowest-priority (newest among ties) entries from queue_
  // until its depth is <= target. Requires mu_; returns the victims for the
  // caller to fulfil with kShedded outside the lock.
  std::vector<Pending> ShedLocked(size_t target_depth);
  // Shed/rejection response carrying the brownout retry hint.
  InsightResponse SheddedResponse(uint64_t id, const std::string& why);

  // Microseconds since engine construction (the SLO/flight timeline).
  int64_t NowUs() const;

  // `version` is the model generation the body was computed with; stale
  // puts (an in-flight batch finishing after a reload) are dropped.
  void CachePut(uint64_t program_hash, uint64_t workload_hash, std::string body,
                uint64_t version);
  // The facts of the lowered `nf` under the snapshot's current backend: from
  // the memo, or computed (recording a serve.infer span on `p`) and
  // inserted.
  std::shared_ptr<const ProgramFacts> Facts(ModelSnapshot& model, uint64_t program_hash,
                                            const NfInstance& nf, Pending& p);

  ServeOptions opts_;
  // ProgramFingerprint of every ElementRegistry() entry, in registry order:
  // a by-name cache hit needs neither the program nor its source text.
  std::vector<uint64_t> element_fingerprints_;

  // Serving model. model_mu_ guards only the pointer swap (see
  // ModelSnapshot for what changes while a snapshot is shared).
  mutable std::mutex model_mu_;
  std::shared_ptr<ModelSnapshot> model_;
  std::string reload_path_;  // guarded by model_mu_
  std::atomic<uint64_t> artifact_version_{1};
  std::atomic<uint64_t> reload_ok_{0};
  std::atomic<uint64_t> reload_rejected_{0};
  // Backend actually in effect (brownout may override opts_.infer_backend);
  // mirrored atomically so Stats/Health never race the dispatcher.
  std::atomic<InferBackend> effective_backend_;

  // Brownout plane. The policy object is dispatcher-owned; everyone else
  // reads the atomic mirrors.
  BrownoutPolicy brownout_;
  std::atomic<bool> brownout_active_{false};
  std::atomic<uint64_t> shedded_{0};
  int64_t last_brownout_us_ = 0;  // dispatcher-only throttle

  // Telemetry plane. Engine-local atomics shadow the obs counters so Health
  // stays correct even when the global obs switch is off.
  Clock::time_point started_ = Clock::now();
  obs::SloTracker slo_;
  obs::FlightRecorder flight_;
  std::atomic<uint64_t> trace_id_gen_{1};
  std::atomic<int64_t> last_slo_export_us_{0};
  std::atomic<bool> flight_dumped_{false};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> errors_{0};
  std::atomic<uint64_t> cache_hits_{0};
  std::atomic<uint64_t> cache_misses_{0};
  std::atomic<uint64_t> memo_hits_{0};
  std::atomic<uint64_t> memo_misses_{0};

  // Transport stats callback (see SetTransportStatsProvider).
  mutable std::mutex transport_mu_;
  std::function<std::string()> transport_stats_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Pending> queue_;
  bool stop_ = false;
  bool running_ = false;
  std::thread dispatcher_;

  // Encoded response bodies keyed by (program hash, workload hash).
  LruMap<std::string> cache_;
};

}  // namespace serve
}  // namespace clara

#endif  // SRC_SERVE_SERVER_H_
