// Serving-path latency: cold in-process training vs warm artifact loading,
// serve-cache hits vs misses, and misses on memoized vs unseen programs.
//
// The train-once/serve-many split only earns its keep if (a) loading a
// bundle is much cheaper than retraining and (b) a cache hit is much cheaper
// than a full analysis. This bench measures both and *enforces* them: it
// exits nonzero if the warm path is not faster, so the tier-1 ctest run
// gates the speedup directly.
//
// JSON rows (BENCH_serve_latency.json) report the speedups capped at 5x:
// the raw ratios are enormous (seconds vs microseconds) and noisy, while
// "at least 5x" is stable across machines, which keeps tools/bench_diff.py
// meaningful as a regression gate.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/analyzer.h"
#include "src/ml/kernels_f32.h"
#include "src/obs/obs.h"
#include "src/obs/trace.h"
#include "src/serve/artifact.h"
#include "src/serve/proto.h"
#include "src/serve/server.h"

namespace clara {
namespace bench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

AnalyzerOptions SmallOptions() {
  AnalyzerOptions options;
  options.predictor.train_programs = 24;
  options.predictor.lstm.epochs = 2;
  options.scaleout.train_programs = 16;
  options.colocation.train_nfs = 8;
  options.colocation.train_groups = 16;
  options.algo_corpus_per_class = 6;
  return options;
}

serve::InsightRequest Request(uint64_t id, const char* element) {
  serve::InsightRequest req;
  req.id = id;
  req.element = element;
  req.workload = WorkloadSpec::SmallFlows();
  return req;
}

int Run() {
  // Cold path: full in-process training (the small corpus used by CI).
  Clock::time_point t0 = Clock::now();
  ClaraAnalyzer analyzer(SmallOptions());
  {
    std::vector<Program> corpus;
    for (const auto& info : ElementRegistry()) {
      corpus.push_back(info.make());
    }
    std::vector<const Program*> ptrs;
    for (const auto& p : corpus) {
      ptrs.push_back(&p);
    }
    analyzer.Train(ptrs);
  }
  double cold_train_ms = MsSince(t0);

  // Warm path: deserialize the artifact and build an analyzer around it.
  std::string artifact = serve::SerializeBundle(analyzer.ExportTrained());
  t0 = Clock::now();
  TrainedBundle bundle;
  std::string error;
  if (!serve::DeserializeBundle(artifact, &bundle, &error)) {
    std::fprintf(stderr, "serve_latency: %s\n", error.c_str());
    return 1;
  }
  serve::ServeOptions opts;
  opts.profile_packets = 400;
  serve::ServeEngine engine(std::move(bundle), opts);
  double warm_load_ms = MsSince(t0);

  // Cache miss vs hit: first request analyzes, repeats replay cached bytes.
  t0 = Clock::now();
  serve::InsightResponse miss = engine.Handle(Request(1, "aggcounter"));
  double miss_ms = MsSince(t0);
  if (miss.error != serve::ErrorCode::kOk) {
    std::fprintf(stderr, "serve_latency: miss failed: %s\n", miss.error_message.c_str());
    return 1;
  }
  // Cache hits are single-digit microseconds, so a single timed loop is
  // dominated by scheduler noise. Measure traced and untraced hits in
  // interleaved rounds (so machine-load drift hits both equally) and take
  // the per-mode minimum: the ratio of two best-of runs is far more stable
  // than the ratio of two single runs.
  constexpr int kHits = 200;
  constexpr int kRounds = 5;
  uint64_t next_id = 2;
  obs::TraceSink trace_sink;
  auto hit_round_ms = [&](bool traced) -> double {
    // Tracing on means the full telemetry plane: global trace sink attached,
    // per-request trace ids minted, per-stage spans and breakdowns recorded.
    obs::SetGlobalTrace(traced ? &trace_sink : nullptr);
    obs::SetEnabled(traced);
    Clock::time_point start = Clock::now();
    for (int i = 0; i < kHits; ++i) {
      serve::InsightRequest req = Request(next_id, "aggcounter");
      if (traced) {
        req.trace_id = next_id;
      }
      ++next_id;
      serve::InsightResponse hit = engine.Handle(std::move(req));
      if (hit.error != serve::ErrorCode::kOk) {
        std::fprintf(stderr, "serve_latency: hit failed: %s\n",
                     hit.error_message.c_str());
        return -1;
      }
    }
    double ms = MsSince(start) / kHits;
    obs::SetEnabled(false);
    obs::SetGlobalTrace(nullptr);
    return ms;
  };
  double hit_ms = -1;
  double traced_hit_ms = -1;
  for (int round = 0; round < kRounds + 1; ++round) {
    double plain = hit_round_ms(/*traced=*/false);
    double traced = hit_round_ms(/*traced=*/true);
    if (plain < 0 || traced < 0) {
      return 1;
    }
    if (round == 0) {
      continue;  // warmup round: caches, allocator, branch predictors
    }
    if (hit_ms < 0 || plain < hit_ms) {
      hit_ms = plain;
    }
    if (traced_hit_ms < 0 || traced < traced_hit_ms) {
      traced_hit_ms = traced;
    }
  }

  // ---- int8 backend on the miss path ----
  //
  // A cache miss pays profiling + per-block LSTM inference + analysis; the
  // int8 engine accelerates the inference share. Misses are forced by giving
  // every request a fresh workload seed (a different workload hash misses
  // the cache), interleaved between the two engines so machine-load drift
  // hits both equally; per-engine best-of-round totals make the ratio
  // stable. Gate: int8 must not be slower, and its training-set WMAPE must
  // stay within 1% relative of the f64 path's.
  // Dedicated engines for the comparison, with a lighter profiling pass
  // (100 packets) so the inference share of a miss — the part the backend
  // changes — dominates the ratio instead of trace interpretation. Neither
  // keeps a program memo (cache_capacity 0): with one, repeated elements
  // would skip inference on both engines and the row would compare nothing.
  TrainedBundle bundle64_cmp, bundle8_cmp;
  if (!serve::DeserializeBundle(artifact, &bundle64_cmp, &error) ||
      !serve::DeserializeBundle(artifact, &bundle8_cmp, &error)) {
    std::fprintf(stderr, "serve_latency: %s\n", error.c_str());
    return 1;
  }
  serve::ServeOptions opts_cmp = opts;
  opts_cmp.profile_packets = 100;
  opts_cmp.cache_capacity = 0;
  serve::ServeEngine engine64_cmp(std::move(bundle64_cmp), opts_cmp);
  serve::ServeOptions opts8 = opts_cmp;
  opts8.infer_backend = InferBackend::kInt8;
  serve::ServeEngine engine8(std::move(bundle8_cmp), opts8);

  const char* kMissElements[] = {"aggcounter", "heavyhitter", "iplookup", "cmsketch"};
  uint64_t miss_seed = 1000;
  auto miss_round_ms = [&](serve::ServeEngine& eng) -> double {
    Clock::time_point start = Clock::now();
    for (const char* element : kMissElements) {
      serve::InsightRequest req = Request(next_id++, element);
      req.workload.seed = miss_seed++;
      serve::InsightResponse resp = eng.Handle(std::move(req));
      if (resp.error != serve::ErrorCode::kOk) {
        std::fprintf(stderr, "serve_latency: miss failed: %s\n",
                     resp.error_message.c_str());
        return -1;
      }
    }
    return MsSince(start);
  };
  // Interleaved rounds on two engines; *best_a/*best_b receive each engine's
  // fastest measured round. Round 0 is unmeasured warmup.
  auto best_miss_rounds = [&](serve::ServeEngine& a, serve::ServeEngine& b, double* best_a,
                              double* best_b) -> bool {
    *best_a = *best_b = -1;
    for (int round = 0; round < kRounds + 1; ++round) {
      double ma = miss_round_ms(a);
      double mb = miss_round_ms(b);
      if (ma < 0 || mb < 0) {
        return false;
      }
      if (round == 0) {
        continue;
      }
      if (*best_a < 0 || ma < *best_a) {
        *best_a = ma;
      }
      if (*best_b < 0 || mb < *best_b) {
        *best_b = mb;
      }
    }
    return true;
  };
  double miss64_ms = -1, miss8_ms = -1;
  if (!best_miss_rounds(engine64_cmp, engine8, &miss64_ms, &miss8_ms)) {
    return 1;
  }
  double int8_miss_speedup = miss8_ms > 0 ? miss64_ms / miss8_ms : 0;

  // ---- program memo on the miss path ----
  //
  // A miss on a program the engine has seen under another workload reuses
  // its prediction, accelerator class and NIC block costs and runs only the
  // workload part. The cold engine keeps no memo (cache_capacity 0), so every
  // miss recomputes them; the warm engine is a default one whose memo the
  // unmeasured warmup round fills. Gate: warm-program misses at least 1.2x
  // faster.
  double cold_program_ms = -1, warm_program_ms = -1;
  {  // scoped so both engines are gone before the reload row below
    TrainedBundle bundle_cold, bundle_warm;
    if (!serve::DeserializeBundle(artifact, &bundle_cold, &error) ||
        !serve::DeserializeBundle(artifact, &bundle_warm, &error)) {
      std::fprintf(stderr, "serve_latency: %s\n", error.c_str());
      return 1;
    }
    // The lighter 100-packet profile of the int8 row keeps the program part a
    // large enough share of a miss that round-to-round noise in profiling
    // cannot hide it.
    serve::ServeOptions opts_warm = opts;
    opts_warm.profile_packets = 100;
    serve::ServeOptions opts_cold = opts_warm;
    opts_cold.cache_capacity = 0;
    serve::ServeEngine engine_cold(std::move(bundle_cold), opts_cold);
    serve::ServeEngine engine_warm(std::move(bundle_warm), opts_warm);
    if (!best_miss_rounds(engine_cold, engine_warm, &cold_program_ms, &warm_program_ms)) {
      return 1;
    }
  }
  double warm_program_speedup = warm_program_ms > 0 ? cold_program_ms / warm_program_ms : 0;

  // WMAPE parity on the cold-trained predictor's own dataset (the loaded
  // bundle does not persist it).
  const SeqDataset& train_set = analyzer.predictor().dataset();
  auto wmape = [&](const LstmRegressor& model) {
    double abs_err = 0, abs_y = 0;
    for (const auto& ex : train_set.examples) {
      abs_err += std::abs(model.Predict(ex.tokens) - ex.target);
      abs_y += std::abs(ex.target);
    }
    return abs_y > 0 ? abs_err / abs_y : 0;
  };
  LstmRegressor lstm8 = analyzer.predictor().model();
  lstm8.SetInferBackend(InferBackend::kInt8);
  double wmape64 = wmape(analyzer.predictor().model());
  double wmape8 = wmape(lstm8);

  // ---- hot reload under load ----
  //
  // Swapping the model snapshot mid-traffic must not disturb the serving hot
  // path: one Reload() fires from another thread halfway through a round of
  // cache-hit requests, and the round's cache-hit p99 must stay within 5% of
  // an undisturbed round's. Every cache hit of the reload round counts,
  // before and after the swap. The cache repopulation itself is a full
  // analysis by design (the new model must not serve the old model's cached
  // bytes), so it is not a cache hit and is left out. Both kinds of round
  // deserialize a bundle and start the waiting thread; only the reload
  // round's thread calls Reload(). Every round ends with unmeasured requests
  // that finish any repopulation, so no round starts inside the previous
  // reload.
  constexpr int kReloadRoundHits = 400;
  constexpr int kRepopulateHits = 20;
  auto reload_round = [&](bool with_reload, std::vector<double>* hit_us) -> bool {
    std::atomic<bool> go{false};
    TrainedBundle fresh;
    if (!serve::DeserializeBundle(artifact, &fresh, &error)) {
      std::fprintf(stderr, "serve_latency: %s\n", error.c_str());
      return false;
    }
    std::thread reloader([&] {
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      std::string rerr;
      if (with_reload && !engine.Reload(std::move(fresh), &rerr)) {
        std::fprintf(stderr, "serve_latency: reload under load failed: %s\n",
                     rerr.c_str());
      }
    });
    bool ok = true;
    for (int i = 0; i < kReloadRoundHits; ++i) {
      if (i == kReloadRoundHits / 2) {
        go.store(true, std::memory_order_release);
      }
      Clock::time_point start = Clock::now();
      serve::InsightResponse hit = engine.Handle(Request(next_id++, "aggcounter"));
      double us = std::chrono::duration<double, std::micro>(Clock::now() - start).count();
      if (hit_us != nullptr && hit.breakdown.cache_hit) {
        hit_us->push_back(us);
      }
      if (hit.error != serve::ErrorCode::kOk) {
        std::fprintf(stderr, "serve_latency: hit during reload failed: %s\n",
                     hit.error_message.c_str());
        ok = false;
        break;
      }
    }
    go.store(true, std::memory_order_release);
    reloader.join();
    for (int i = 0; ok && i < kRepopulateHits; ++i) {
      ok = engine.Handle(Request(next_id++, "aggcounter")).error == serve::ErrorCode::kOk;
    }
    return ok;
  };
  // Per-round p99 at the ~10us cache-hit scale is dominated by scheduler
  // jitter, so pool all samples per mode across interleaved rounds (drift
  // hits both modes equally) and compare pooled p99s. The comparison gets a
  // few attempts: the gate asserts reloads CAN run without disturbing the
  // hot path, and one descheduling storm must not fail the build.
  constexpr int kReloadRounds = 10;
  double plain_p99_us = -1, reload_p99_us = -1, reload_p99_ratio = 10.0;
  auto pooled_p99 = [](std::vector<double>* pool) -> double {
    std::sort(pool->begin(), pool->end());
    return (*pool)[static_cast<size_t>(static_cast<double>(pool->size()) * 0.99)];
  };
  for (int attempt = 0; attempt < 3 && reload_p99_ratio > 1.05; ++attempt) {
    std::vector<double> plain_pool, reload_pool;
    plain_pool.reserve(kReloadRounds * kReloadRoundHits);
    reload_pool.reserve(kReloadRounds * kReloadRoundHits);
    if (!reload_round(false, nullptr) || !reload_round(true, nullptr)) {  // warmup
      return 1;
    }
    for (int round = 0; round < kReloadRounds; ++round) {
      if (!reload_round(false, &plain_pool) || !reload_round(true, &reload_pool)) {
        return 1;
      }
    }
    plain_p99_us = pooled_p99(&plain_pool);
    reload_p99_us = pooled_p99(&reload_pool);
    reload_p99_ratio = plain_p99_us > 0 ? reload_p99_us / plain_p99_us : 1.0;
  }
  double reload_p99_ratio_clamped = std::min(std::max(reload_p99_ratio, 1.0), 1.05);

  double train_speedup = warm_load_ms > 0 ? cold_train_ms / warm_load_ms : 0;
  double cache_speedup = hit_ms > 0 ? miss_ms / hit_ms : 0;
  double tracing_ratio = hit_ms > 0 ? traced_hit_ms / hit_ms : 1.0;
  double tracing_ratio_clamped = std::min(std::max(tracing_ratio, 1.0), 1.5);
  std::printf("%-28s %12s %12s %10s\n", "phase", "cold/miss ms", "warm/hit ms", "speedup");
  std::printf("%-28s %12.2f %12.2f %9.1fx\n", "train vs artifact load", cold_train_ms,
              warm_load_ms, train_speedup);
  std::printf("%-28s %12.3f %12.3f %9.1fx\n", "analysis vs cache hit", miss_ms, hit_ms,
              cache_speedup);
  std::printf("%-28s %12.3f %12.3f %9.2fx\n", "cache hit with tracing on", hit_ms,
              traced_hit_ms, tracing_ratio);
  std::printf("%-28s %12.3f %12.3f %9.2fx\n", "miss f64 vs int8 engine", miss64_ms,
              miss8_ms, int8_miss_speedup);
  std::printf("%-28s %12.3f %12.3f %9.2fx\n", "miss cold vs warm program", cold_program_ms,
              warm_program_ms, warm_program_speedup);
  std::printf("%-28s %12.4f %12.4f\n", "train WMAPE f64 vs int8", wmape64, wmape8);
  std::printf("%-28s %12.3f %12.3f %9.2fx\n", "cache-hit p99 during reload",
              plain_p99_us / 1000.0, reload_p99_us / 1000.0, reload_p99_ratio);

  JsonRows json("serve_latency");
  json.Row()
      .Str("phase", "cold_train_vs_warm_load")
      .Num("speedup_capped", std::min(train_speedup, 5.0));
  json.Row()
      .Str("phase", "cache_hit_vs_miss")
      .Num("speedup_capped", std::min(cache_speedup, 5.0));
  json.Row()
      .Str("phase", "tracing_on_vs_off")
      .Num("tracing_overhead_latency_ratio", tracing_ratio_clamped);
  json.Row()
      .Str("phase", "cache_miss_f64_vs_int8")
      .Num("speedup_capped", std::min(int8_miss_speedup, 5.0));
  json.Row()
      .Str("phase", "cache_miss_warm_vs_cold_program")
      .Num("speedup_capped", std::min(warm_program_speedup, 5.0));
  json.Row()
      .Str("phase", "reload_during_load")
      .Num("hot_reload_p99_latency_ratio", reload_p99_ratio_clamped);

  // The acceptance gate: warm serving must beat cold training, cache hits
  // must beat full analysis, and full tracing must not blow up the warm path.
  if (train_speedup <= 1.0 || cache_speedup <= 1.0) {
    std::fprintf(stderr, "serve_latency: warm path is not faster (train %.1fx, cache %.1fx)\n",
                 train_speedup, cache_speedup);
    return 1;
  }
  if (tracing_ratio > 1.5) {
    std::fprintf(stderr, "serve_latency: tracing overhead too high (%.2fx warm hit latency)\n",
                 tracing_ratio);
    return 1;
  }
  // The int8-beats-f64 gate only holds where the SIMD kernels dispatch: the
  // scalar fallback keeps cross-machine bit-exactness by paying libm fmaf
  // per multiply-add, which costs more than the quantization saves. There
  // int8 must merely stay in the same ballpark.
  double int8_floor = kernels::Avx2F32Kernels() != nullptr ? 1.0 : 0.75;
  if (int8_miss_speedup <= int8_floor) {
    std::fprintf(stderr,
                 "serve_latency: int8 engine too slow on cache misses "
                 "(%.2fx, floor %.2fx)\n",
                 int8_miss_speedup, int8_floor);
    return 1;
  }
  if (warm_program_speedup < 1.2) {
    std::fprintf(stderr,
                 "serve_latency: program memo does not pay on cache misses "
                 "(%.2fx, gate 1.2x)\n",
                 warm_program_speedup);
    return 1;
  }
  if (reload_p99_ratio > 1.05) {
    std::fprintf(stderr,
                 "serve_latency: hot reload disturbs the serving path "
                 "(p99 ratio %.3fx, gate 1.05x)\n",
                 reload_p99_ratio);
    return 1;
  }
  if (wmape8 > wmape64 * 1.01 + 1e-9) {
    std::fprintf(stderr,
                 "serve_latency: int8 WMAPE degraded more than 1%% relative "
                 "(f64 %.6f, int8 %.6f)\n",
                 wmape64, wmape8);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace clara

int main(int argc, char** argv) {
  clara::bench::InitBenchThreads(argc, argv);
  return clara::bench::Run();
}
