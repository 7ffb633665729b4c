// google-benchmark microbenchmarks for the library's hot kernels: how fast
// is the tooling itself (lowering, compilation, interpretation, inference,
// solving)? Useful when extending Clara — none of the paper's figures depend
// on these numbers.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>

#include "bench/bench_util.h"
#include "src/core/predictor.h"
#include "src/elements/elements.h"
#include "src/ir/vocab.h"
#include "src/lang/interp.h"
#include "src/lang/lower.h"
#include "src/ml/automl.h"
#include "src/ml/kernels.h"
#include "src/ml/kernels_f32.h"
#include "src/ml/lstm.h"
#include "src/ml/simd.h"
#include "src/nic/backend.h"
#include "src/nic/perf_model.h"
#include "src/solver/assignment_ilp.h"
#include "src/util/parallel.h"
#include "src/workload/workload.h"

namespace clara {
namespace {

void BM_LowerMazuNat(benchmark::State& state) {
  for (auto _ : state) {
    Program p = MakeMazuNat();
    LowerResult lr = LowerProgram(p);
    benchmark::DoNotOptimize(lr.module.functions[0].NumInstructions());
  }
}
BENCHMARK(BM_LowerMazuNat);

void BM_CompileToNicMazuNat(benchmark::State& state) {
  Program p = MakeMazuNat();
  LowerResult lr = LowerProgram(p);
  for (auto _ : state) {
    NicProgram nic = CompileToNic(lr.module);
    benchmark::DoNotOptimize(nic.Totals().compute);
  }
}
BENCHMARK(BM_CompileToNicMazuNat);

void BM_InterpretPacket(benchmark::State& state) {
  NfInstance nf(MakeMazuNat());
  Trace trace = GenerateTrace(WorkloadSpec::SmallFlows(), 4096);
  size_t i = 0;
  for (auto _ : state) {
    Packet pkt = trace.packets[i++ & 4095];
    pkt.in_port = 0;
    nf.Process(pkt);
    benchmark::DoNotOptimize(pkt.verdict);
  }
}
BENCHMARK(BM_InterpretPacket);

void BM_SimMapFind(benchmark::State& state) {
  StateDecl d;
  d.name = "m";
  d.kind = StateKind::kMap;
  d.key_fields = {Type::kI32, Type::kI32};
  d.value_fields = {{"v", Type::kI32}};
  d.capacity = 8192;
  d.impl = MapImpl::kNicFixedBucket;
  SimMap m(d);
  for (uint64_t k = 1; k <= 4096; ++k) {
    uint64_t keys[] = {k, k + 1};
    uint64_t value[] = {k};
    m.Insert(keys, value);
  }
  uint64_t k = 1;
  uint64_t out[1];
  for (auto _ : state) {
    uint64_t keys[] = {k, k + 1};
    auto r = m.Find(keys, out);
    benchmark::DoNotOptimize(r.found);
    k = k % 4096 + 1;
  }
}
BENCHMARK(BM_SimMapFind);

void BM_LstmInference(benchmark::State& state) {
  SeqDataset data;
  data.vocab = 64;
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    SeqExample ex;
    for (int t = 0; t < 24; ++t) {
      ex.tokens.push_back(static_cast<int>(rng.NextBounded(64)));
    }
    ex.target = static_cast<double>(rng.NextBounded(40));
    data.examples.push_back(std::move(ex));
  }
  LstmOptions opts;
  opts.epochs = 2;
  opts.hidden = 32;
  LstmRegressor lstm(opts);
  lstm.Fit(data);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lstm.Predict(data.examples[i++ % 100].tokens));
  }
}
BENCHMARK(BM_LstmInference);

// The LSTM-recurrence GEMV shape (4H x H rows at H=32), timed per backend:
// the serve hot path's dominant kernel. The f32 rows use the dispatched
// kernel table (AVX2 when available), the int8 rows include the per-call
// activation quantization + dequantization the real recurrence pays.
constexpr int kGemvRows = 128, kGemvCols = 32;

struct GemvFixture {
  std::vector<double> m64, x64, bias64, y64;
  std::vector<float> m32, x32, bias32, y32;
  std::vector<float> row_scale;
  std::vector<int8_t> m8;
  std::vector<int32_t> rowsum, acc;
  std::vector<uint8_t> q;

  GemvFixture() {
    Rng rng(21);
    m64.resize(kGemvRows * kGemvCols);
    x64.resize(kGemvCols);
    bias64.resize(kGemvRows);
    y64.resize(kGemvRows);
    for (auto& v : m64) v = 2 * rng.NextDouble() - 1;
    for (auto& v : x64) v = 2 * rng.NextDouble() - 1;
    for (auto& v : bias64) v = rng.NextDouble();
    m32.assign(m64.begin(), m64.end());
    x32.assign(x64.begin(), x64.end());
    bias32.assign(bias64.begin(), bias64.end());
    y32.resize(kGemvRows);
    row_scale.resize(kGemvRows);
    m8.resize(kGemvRows * kGemvCols);
    rowsum.assign(kGemvRows, 0);
    acc.resize(kGemvRows);
    q.resize(kGemvCols);
    for (int r = 0; r < kGemvRows; ++r) {
      row_scale[r] = kernels::Int8RowScale(&m64[r * kGemvCols], kGemvCols);
      for (int c = 0; c < kGemvCols; ++c) {
        m8[r * kGemvCols + c] = kernels::QuantizeWeight(m64[r * kGemvCols + c], row_scale[r]);
        rowsum[r] += m8[r * kGemvCols + c];
      }
    }
  }

  void RunF64() {
    kernels::GemvBias(y64.data(), m64.data(), x64.data(), bias64.data(), kGemvRows, kGemvCols);
    benchmark::DoNotOptimize(y64[0]);
  }
  void RunF32(const kernels::F32Kernels& k) {
    k.gemv_bias(y32.data(), m32.data(), kGemvCols, x32.data(), bias32.data(), kGemvRows,
                kGemvCols);
    benchmark::DoNotOptimize(y32[0]);
  }
  void RunInt8(const kernels::F32Kernels& k) {
    kernels::ActQuant aq = kernels::QuantizeActivations(x32.data(), kGemvCols, q.data());
    k.gemv_int8(acc.data(), m8.data(), kGemvCols, q.data(), kGemvRows, kGemvCols);
    for (int r = 0; r < kGemvRows; ++r) {
      y32[r] = bias32[r] + row_scale[r] * aq.scale *
                               static_cast<float>(acc[r] - aq.zero_point * rowsum[r]);
    }
    benchmark::DoNotOptimize(y32[0]);
  }
};

void BM_GemvF64Scalar(benchmark::State& state) {
  GemvFixture fx;
  for (auto _ : state) {
    fx.RunF64();
  }
}
BENCHMARK(BM_GemvF64Scalar);

void BM_GemvF32Scalar(benchmark::State& state) {
  GemvFixture fx;
  for (auto _ : state) {
    fx.RunF32(kernels::ScalarF32Kernels());
  }
}
BENCHMARK(BM_GemvF32Scalar);

void BM_GemvF32Simd(benchmark::State& state) {
  if (kernels::Avx2F32Kernels() == nullptr) {
    state.SkipWithError("AVX2 kernels unavailable");
    return;
  }
  GemvFixture fx;
  for (auto _ : state) {
    fx.RunF32(*kernels::Avx2F32Kernels());
  }
}
BENCHMARK(BM_GemvF32Simd);

void BM_GemvInt8(benchmark::State& state) {
  GemvFixture fx;
  for (auto _ : state) {
    fx.RunInt8(kernels::ActiveF32Kernels());
  }
}
BENCHMARK(BM_GemvInt8);

void BM_LstmInferenceF32(benchmark::State& state) {
  SeqDataset data;
  data.vocab = 64;
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    SeqExample ex;
    for (int t = 0; t < 24; ++t) {
      ex.tokens.push_back(static_cast<int>(rng.NextBounded(64)));
    }
    ex.target = static_cast<double>(rng.NextBounded(40));
    data.examples.push_back(std::move(ex));
  }
  LstmOptions opts;
  opts.epochs = 2;
  opts.hidden = 32;
  LstmRegressor lstm(opts);
  lstm.Fit(data);
  lstm.SetInferBackend(InferBackend::kF32);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lstm.Predict(data.examples[i++ % 100].tokens));
  }
}
BENCHMARK(BM_LstmInferenceF32);

void BM_LstmInferenceInt8(benchmark::State& state) {
  SeqDataset data;
  data.vocab = 64;
  Rng rng(1);
  for (int i = 0; i < 100; ++i) {
    SeqExample ex;
    for (int t = 0; t < 24; ++t) {
      ex.tokens.push_back(static_cast<int>(rng.NextBounded(64)));
    }
    ex.target = static_cast<double>(rng.NextBounded(40));
    data.examples.push_back(std::move(ex));
  }
  LstmOptions opts;
  opts.epochs = 2;
  opts.hidden = 32;
  LstmRegressor lstm(opts);
  lstm.Fit(data);
  lstm.SetInferBackend(InferBackend::kInt8);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lstm.Predict(data.examples[i++ % 100].tokens));
  }
}
BENCHMARK(BM_LstmInferenceInt8);

void BM_PerfModelEvaluate(benchmark::State& state) {
  PerfModel model;
  NfDemand d;
  d.compute_cycles = 300;
  d.pkt_accesses = 3;
  StateDemand s;
  s.accesses_per_pkt = 4;
  s.words_per_access = 3;
  s.region = MemRegion::kEmem;
  s.cache_hit_rate = 0.7;
  d.state.push_back(s);
  int cores = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Evaluate(d, cores).throughput_mpps);
    cores = cores % 60 + 1;
  }
}
BENCHMARK(BM_PerfModelEvaluate);

void BM_IlpSolve(benchmark::State& state) {
  AssignmentProblem p;
  Rng rng(7);
  p.capacity = {1000, 4000, 16000, 1u << 30};
  for (int i = 0; i < 8; ++i) {
    p.size.push_back(100 + rng.NextBounded(3000));
    std::vector<double> row;
    for (int j = 0; j < 4; ++j) {
      row.push_back(1.0 + static_cast<double>(rng.NextBounded(500)));
    }
    p.cost.push_back(row);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveAssignment(p).objective);
  }
}
BENCHMARK(BM_IlpSolve);

void BM_KernelDot(benchmark::State& state) {
  std::vector<double> a(1024), b(1024);
  Rng rng(3);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.NextDouble();
    b[i] = rng.NextDouble();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::Dot(a.data(), b.data(), a.size()));
  }
}
BENCHMARK(BM_KernelDot);

void BM_KernelGemvBias(benchmark::State& state) {
  constexpr size_t kRows = 256, kCols = 64;
  std::vector<double> m(kRows * kCols), x(kCols), bias(kRows), y(kRows);
  Rng rng(4);
  for (auto& v : m) {
    v = rng.NextDouble();
  }
  for (auto& v : x) {
    v = rng.NextDouble();
  }
  for (auto _ : state) {
    kernels::GemvBias(y.data(), m.data(), x.data(), bias.data(), kRows, kCols);
    benchmark::DoNotOptimize(y[0]);
  }
}
BENCHMARK(BM_KernelGemvBias);

void BM_KernelAxpyDual(benchmark::State& state) {
  constexpr size_t kN = 1024;
  std::vector<double> g(kN), dh(kN), w(kN), h(kN);
  Rng rng(5);
  for (size_t i = 0; i < kN; ++i) {
    w[i] = rng.NextDouble();
    h[i] = rng.NextDouble();
  }
  for (auto _ : state) {
    kernels::AxpyDual(g.data(), dh.data(), w.data(), h.data(), 0.25, kN);
    benchmark::DoNotOptimize(g[0]);
  }
}
BENCHMARK(BM_KernelAxpyDual);

void BM_CompileToNicCachedMazuNat(benchmark::State& state) {
  Program p = MakeMazuNat();
  LowerResult lr = LowerProgram(p);
  for (auto _ : state) {
    NicProgram nic = CompileToNicCached(lr.module);
    benchmark::DoNotOptimize(nic.Totals().compute);
  }
}
BENCHMARK(BM_CompileToNicCachedMazuNat);

void BM_VocabularyEncode(benchmark::State& state) {
  Program p = MakeMazuNat();
  LowerResult lr = LowerProgram(p);
  Vocabulary vocab;
  for (auto _ : state) {
    for (const auto& blk : lr.module.functions[0].blocks) {
      benchmark::DoNotOptimize(vocab.Encode(blk, lr.module).size());
    }
  }
}
BENCHMARK(BM_VocabularyEncode);

}  // namespace

// Serial-vs-parallel wall-time rows for the bench trajectory: the same
// training workloads at 1 thread and at the pool's configured width, written
// to BENCH_micro_kernels.json when CLARA_BENCH_JSON_DIR is set. On a
// single-core host the two columns coincide; tools/bench_diff.py compares
// rows across runs.
void EmitParallelComparison() {
  bench::JsonRows rows("micro_kernels");
  if (!rows.enabled()) {
    return;
  }
  auto time_ms = [](auto&& fn) {
    auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  SeqDataset seq;
  seq.vocab = 64;
  Rng rng(11);
  for (int i = 0; i < 120; ++i) {
    SeqExample ex;
    for (int t = 0; t < 24; ++t) {
      ex.tokens.push_back(static_cast<int>(rng.NextBounded(64)));
    }
    ex.target = static_cast<double>(rng.NextBounded(40));
    seq.examples.push_back(std::move(ex));
  }
  TabularDataset tab;
  for (int i = 0; i < 160; ++i) {
    FeatureVec x;
    for (int j = 0; j < 6; ++j) {
      x.push_back(rng.NextDouble());
    }
    tab.y.push_back(x[0] * 3 + x[1] - x[2] * x[3]);
    tab.x.push_back(std::move(x));
  }
  PredictorOptions popts;
  popts.train_programs = 40;  // reduced corpus: a trajectory row, not a figure
  popts.lstm.epochs = 2;
  popts.lstm.hidden = 16;
  popts.lstm.batch_size = 8;
  popts.synth.profile = bench::CorpusProfile(bench::ElementCorpus());
  int wide = NumThreads();
  for (int threads : {1, wide}) {
    SetNumThreads(threads);
    LstmOptions opts;
    opts.epochs = 4;
    opts.hidden = 24;
    opts.batch_size = 8;
    double lstm_ms = time_ms([&] {
      LstmRegressor lstm(opts);
      lstm.Fit(seq);
    });
    double automl_ms = time_ms([&] { AutoMlRegression(tab); });
    ClearNicCompileCache();  // both passes pay the same compile cost
    double predictor_ms = time_ms([&] {
      InstructionPredictor pred(popts);
      pred.Train();
    });
    rows.Row().Str("phase", "lstm_fit").Num("threads", threads).Num("ms", lstm_ms);
    rows.Row().Str("phase", "automl_fit").Num("threads", threads).Num("ms", automl_ms);
    rows.Row().Str("phase", "predictor_train").Num("threads", threads).Num("ms", predictor_ms);
  }
  SetNumThreads(wide);

  // GEMV backend comparison on the LSTM-recurrence shape. The JSON rows
  // carry the speedup capped at 2.5 so bench_diff comparisons stay stable
  // across machines with different SIMD width / memory systems; the
  // uncapped measurement is printed for humans.
  GemvFixture fx;
  auto best_of = [&](auto&& run) {
    constexpr int kIters = 20000;
    double best = 1e300;
    for (int round = 0; round < 5; ++round) {
      auto t0 = std::chrono::steady_clock::now();
      for (int i = 0; i < kIters; ++i) {
        run();
      }
      double ms =
          std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
              .count();
      best = best < ms ? best : ms;
    }
    return best;
  };
  double f64_ms = best_of([&] { fx.RunF64(); });
  double f32_ms = best_of([&] { fx.RunF32(kernels::ActiveF32Kernels()); });
  double int8_ms = best_of([&] { fx.RunInt8(kernels::ActiveF32Kernels()); });
  double f32_speedup = f32_ms > 0 ? f64_ms / f32_ms : 0;
  double int8_speedup = int8_ms > 0 ? f64_ms / int8_ms : 0;
  std::printf("gemv %dx%d (%s): f64 %.3fms  f32 %.3fms (%.2fx)  int8 %.3fms (%.2fx)\n",
              kGemvRows, kGemvCols, kernels::ActiveF32Kernels().name, f64_ms, f32_ms,
              f32_speedup, int8_ms, int8_speedup);
  auto cap = [](double v) { return v < 2.5 ? v : 2.5; };
  rows.Row()
      .Str("phase", "gemv_speedup")
      .Str("variant", "f32_simd_vs_f64_scalar")
      .Num("speedup_capped", cap(f32_speedup));
  rows.Row()
      .Str("phase", "gemv_speedup")
      .Str("variant", "int8_vs_f64_scalar")
      .Num("speedup_capped", cap(int8_speedup));
}

// The profile stage's two costs, per element class: interpreting a trace
// (ns per packet) and generating it (us per 4000-packet trace), each the
// best of kRounds fresh runs with the median and spread ((Q3 - Q1) /
// median) beside it. Report-only rows: absolute times from one machine are
// not a cross-machine gate, so bench/baselines does not carry them.
void EmitProfileRows() {
  bench::JsonRows rows("micro_kernels_profile");
  constexpr int kRounds = 9;
  constexpr size_t kPackets = 4000;
  struct Stats {
    double best, median, spread;
  };
  auto stats_of = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    double median = v[v.size() / 2];
    double spread = median > 0 ? (v[v.size() * 3 / 4] - v[v.size() / 4]) / median : 0;
    return Stats{v.front(), median, spread};
  };
  auto elapsed_ns = [](std::chrono::steady_clock::time_point t0) {
    return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  const std::pair<const char*, WorkloadSpec> flows[] = {
      {"small", WorkloadSpec::SmallFlows()}, {"large", WorkloadSpec::LargeFlows()}};
  for (const auto& [flow, spec] : flows) {
    std::vector<double> us;
    for (int r = 0; r < kRounds; ++r) {
      auto t0 = std::chrono::steady_clock::now();
      Trace t = GenerateTrace(spec, kPackets);
      benchmark::DoNotOptimize(t.packets.data());
      us.push_back(elapsed_ns(t0) / 1000.0);
    }
    Stats st = stats_of(us);
    std::printf("trace_gen_us %-5s best %8.1f  median %8.1f  spread %.2f\n", flow, st.best,
                st.median, st.spread);
    rows.Row()
        .Str("phase", "trace_gen_us")
        .Str("flows", flow)
        .Num("us_best", st.best)
        .Num("us_median", st.median)
        .Num("spread", st.spread);
  }
  // One element per class of the registry: stateless header rewrite, array
  // state, flow-keyed maps, payload scan, accelerator-eligible sketch.
  for (const char* element : {"anonipaddr", "aggcounter", "mazunat", "dpi", "cmsketch"}) {
    for (const auto& [flow, spec] : flows) {
      Trace trace = GenerateTrace(spec, kPackets);
      std::vector<double> ns;
      for (int r = 0; r < kRounds; ++r) {
        NfInstance nf(MakeElementByName(element));
        std::vector<Packet> packets = trace.packets;
        auto t0 = std::chrono::steady_clock::now();
        for (auto& pkt : packets) {
          nf.Process(pkt);
        }
        ns.push_back(elapsed_ns(t0) / static_cast<double>(kPackets));
      }
      Stats st = stats_of(ns);
      std::printf("profile_ns_per_packet %-10s %-5s best %7.1f  median %7.1f  spread %.2f\n",
                  element, flow, st.best, st.median, st.spread);
      rows.Row()
          .Str("phase", "profile_ns_per_packet")
          .Str("element", element)
          .Str("flows", flow)
          .Num("ns_best", st.best)
          .Num("ns_median", st.median)
          .Num("spread", st.spread);
    }
  }
}

}  // namespace clara

int main(int argc, char** argv) {
  clara::bench::InitBenchThreads(argc, argv);
  // Drop --threads= before handing argv to google-benchmark: it rejects
  // flags it does not recognize.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) != 0) {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  clara::EmitParallelComparison();
  clara::EmitProfileRows();
  return 0;
}
