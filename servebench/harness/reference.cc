#include "servebench/harness/reference.h"

#include <chrono>

#include "src/core/coalescing.h"
#include "src/core/placement.h"
#include "src/core/predictor.h"
#include "src/elements/elements.h"
#include "src/lang/check.h"
#include "src/lang/interp.h"
#include "src/lang/lower.h"
#include "src/lang/parse.h"
#include "src/lang/printer.h"
#include "src/nic/backend.h"
#include "src/nic/demand.h"
#include "src/serve/artifact.h"
#include "src/serve/server.h"
#include "src/synth/algorithm_corpus.h"
#include "src/synth/synth.h"
#include "src/util/binio.h"
#include "src/workload/workload.h"

namespace servebench {

using clara::serve::InsightRequest;
using clara::serve::InsightResponse;
using Clock = std::chrono::steady_clock;

namespace {

double Us(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// Adds the lifetime of the scope to spans->us[name]; a no-op without spans.
class Span {
 public:
  Span(Spans* spans, const char* name)
      : spans_(spans), name_(name), start_(spans != nullptr ? Clock::now() : Clock::time_point{}) {}
  ~Span() {
    if (spans_ != nullptr) {
      spans_->us[name_] += Us(start_, Clock::now());
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Spans* spans_;
  const char* name_;
  Clock::time_point start_;
};

void Count(Spans* spans, const char* name, double n) {
  if (spans != nullptr) {
    spans->count[name] += n;
  }
}

// The daemon resolves names by scanning the registry (src/serve/server.cc).
bool MakeFromRegistry(const std::string& name, clara::Program* out) {
  for (const auto& e : clara::ElementRegistry()) {
    if (e.name == name) {
      *out = e.make();
      return true;
    }
  }
  return false;
}

}  // namespace

clara::AnalyzerOptions DaemonAnalyzerOptions() {
  clara::serve::ServeOptions serve;  // clara_serve's defaults
  clara::AnalyzerOptions a;
  a.nic = serve.nic;
  a.profile_packets = serve.profile_packets;
  return a;
}

clara::AnalyzerOptions CliTrainOptions() {
  clara::AnalyzerOptions options;
  options.predictor.train_programs = 150;
  options.predictor.lstm.epochs = 10;
  options.scaleout.train_programs = 60;
  options.colocation.train_nfs = 24;
  options.colocation.train_groups = 60;
  options.algo_corpus_per_class = 25;
  return options;
}

std::string EncodeInsights(const clara::OffloadingInsights& in, const clara::NicConfig& nic) {
  InsightResponse resp;
  resp.nf_name = in.nf_name;
  resp.accelerator = clara::AccelClassName(in.accelerator);
  resp.suggested_cores = in.suggested_cores;
  resp.total_compute = in.prediction.total_compute;
  resp.total_mem_state = in.prediction.total_mem_state;
  resp.naive_mpps = in.naive_perf.throughput_mpps;
  resp.naive_us = in.naive_perf.latency_us;
  resp.tuned_mpps = in.tuned_perf.throughput_mpps;
  resp.tuned_us = in.tuned_perf.latency_us;
  resp.rendered = in.ToString(nic);
  return clara::serve::EncodeResponseBody(resp);
}

bool Reference::Load(const std::string& bundle_path, std::string* error) {
  clara::TrainedBundle bundle;
  if (!clara::serve::LoadBundleFile(bundle_path, &bundle, error)) {
    return false;
  }
  analyzer_ = std::make_unique<clara::ClaraAnalyzer>(opts_, std::move(bundle));
  if (!analyzer_->trained()) {
    *error = "bundle is not trained";
    return false;
  }
  return true;
}

std::string Reference::Body(const std::string& element, const clara::WorkloadSpec& w) const {
  return EncodeInsights(analyzer_->Analyze(clara::MakeElementByName(element), w), opts_.nic);
}

double Reference::ComputeLabel(const std::string& element) const {
  clara::Program p = clara::MakeElementByName(element);
  clara::LowerResult lr = clara::LowerProgram(p);
  double sum = 0;
  for (const auto& b : clara::CompileGroundTruth(lr.module, opts_.predictor.backend)) {
    sum += b.compute;
  }
  return sum;
}

int Reference::OptimalCores(const std::string& element, const clara::WorkloadSpec& w) const {
  clara::NfInstance nf(clara::MakeElementByName(element));
  clara::Trace trace = clara::GenerateTrace(w, opts_.profile_packets);
  for (auto& pkt : trace.packets) {
    nf.Process(pkt);
  }
  const clara::Module& m = nf.module();
  clara::NicProgram nic = clara::CompileToNic(m, opts_.predictor.backend);
  return analyzer_->perf_model().OptimalCores(
      clara::BuildDemand(m, nic, nf.profile(), w, opts_.nic));
}

ReplayResult Replay(const Reference& ref, const InsightRequest& req, Spans* spans) {
  const clara::ClaraAnalyzer& an = ref.analyzer();
  const clara::AnalyzerOptions& opts = ref.options();
  std::string frame = clara::serve::EncodeRequest(req);
  ReplayResult out;
  Clock::time_point start = Clock::now();

  InsightRequest decoded;
  {
    Span s(spans, "serve.proto");
    std::string err;
    clara::serve::ParseRequest(frame, &decoded, &err);
  }
  clara::Program program;
  if (!decoded.source.empty()) {
    clara::ParseResult parsed;
    {
      Span s(spans, "lang.parse");
      parsed = clara::ParseProgram(decoded.source);
    }
    bool checked = false;
    if (parsed.ok) {
      Span s(spans, "lang.check");
      checked = clara::CheckProgram(parsed.program).ok;
    }
    out.refused = !checked;
    program = std::move(parsed.program);
  } else {
    Span s(spans, "elements.make");
    out.refused = !MakeFromRegistry(decoded.element, &program);
  }
  if (!out.refused) {
    Span s(spans, "serve.cache_key");
    out.cache_key = clara::Fnv1a64(clara::ToSource(program)) ^
                    clara::serve::HashWorkload(decoded.workload);
  }

  // ClaraAnalyzer::Analyze, call by call.
  clara::OffloadingInsights in;
  in.nf_name = program.name;
  std::unique_ptr<clara::NfInstance> nf;
  if (!out.refused) {
    Span s(spans, "lang.lower");
    nf = std::make_unique<clara::NfInstance>(std::move(program));
    out.refused = !nf->ok();
  }
  if (out.refused) {
    out.total_us = Us(start, Clock::now());
    return out;
  }
  const clara::WorkloadSpec& w = decoded.workload;
  clara::Trace trace;
  {
    Span s(spans, "workload.trace");
    trace = clara::GenerateTrace(w, opts.profile_packets);
  }
  {
    Span s(spans, "lang.interp");
    for (auto& pkt : trace.packets) {
      nf->Process(pkt);
    }
  }
  Count(spans, "lang.packets", static_cast<double>(trace.packets.size()));
  const clara::Module& m = nf->module();
  {
    Span s(spans, "ml.predict");
    in.prediction = an.predictor().PredictNf(m);
  }
  Count(spans, "ml.blocks", static_cast<double>(in.prediction.blocks.size()));
  {
    Span s(spans, "core.algo_id");
    in.accelerator = an.algo_id().Classify(m);
  }
  clara::NicProgram nic;
  {
    Span s(spans, "nic.backend");
    nic = clara::CompileToNic(m, opts.predictor.backend);
  }
  clara::NfDemand naive;
  {
    Span s(spans, "nic.demand");
    naive = clara::BuildDemand(m, nic, nf->profile(), w, opts.nic);
  }
  {
    Span s(spans, "core.scaleout");
    in.suggested_cores = an.scaleout().trained() ? an.scaleout().SuggestCores(naive)
                                                 : an.perf_model().OptimalCores(naive);
  }
  {
    Span s(spans, "core.placement");
    in.placement = clara::PlaceState(m, nf->profile(), w, opts.nic);
  }
  Count(spans, "solver.ilp_nodes", static_cast<double>(in.placement.ilp_nodes));
  {
    Span s(spans, "core.coalescing");
    in.coalescing = clara::SuggestCoalescing(m, nf->profile());
  }
  clara::NfDemand tuned;
  {
    Span s(spans, "nic.demand");
    clara::DemandOptions tuned_opts;
    tuned_opts.placement = in.placement.placement;
    tuned_opts.coalescing = in.coalescing.effects;
    tuned = clara::BuildDemand(m, nic, nf->profile(), w, opts.nic, tuned_opts);
  }
  {
    Span s(spans, "nic.perf_model");
    in.naive_perf = an.perf_model().Evaluate(naive, in.suggested_cores);
    in.tuned_perf = an.perf_model().Evaluate(tuned, in.suggested_cores);
  }
  {
    Span s(spans, "serve.proto");
    out.body = EncodeInsights(in, opts.nic);
    std::string response = clara::serve::EncodeResponseWithBody(decoded.id, out.body);
    InsightResponse parsed;
    std::string err;
    clara::serve::ParseResponse(response, &parsed, &err);
  }
  out.total_us = Us(start, Clock::now());
  return out;
}

std::string ReplayTraining(Spans* spans) {
  // ClaraAnalyzer::Train, stage by stage, on the corpus clara_cli builds.
  clara::AnalyzerOptions opts = CliTrainOptions();
  std::vector<clara::Program> corpus;
  for (const auto& info : clara::ElementRegistry()) {
    corpus.push_back(info.make());
  }
  std::vector<const clara::Program*> ptrs;
  for (const auto& p : corpus) {
    ptrs.push_back(&p);
  }
  clara::PerfModel perf_model(opts.nic);
  clara::TrainedBundle b;
  {
    Span s(spans, "train.measure_corpus");
    b.synth_profile = clara::MeasureCorpus(ptrs);
  }
  {
    Span s(spans, "train.predictor");
    clara::PredictorOptions popts = opts.predictor;
    popts.synth.profile = b.synth_profile;
    b.predictor = clara::InstructionPredictor(popts);
    b.predictor.Train();
  }
  {
    Span s(spans, "train.algo_id");
    b.algo_id = clara::AlgorithmIdentifier(opts.algo_id);
    b.algo_id.Train(clara::BuildAlgorithmCorpus(opts.algo_corpus_per_class, opts.seed));
  }
  {
    Span s(spans, "train.scaleout");
    clara::ScaleOutOptions sopts = opts.scaleout;
    sopts.synth.profile = b.synth_profile;
    b.scaleout = clara::ScaleOutAdvisor(sopts);
    b.scaleout.Train(perf_model,
                     {clara::WorkloadSpec::LargeFlows(), clara::WorkloadSpec::SmallFlows()});
  }
  {
    Span s(spans, "train.colocation");
    clara::ColocationOptions copts = opts.colocation;
    copts.synth.profile = b.synth_profile;
    b.colocation = clara::ColocationRanker(copts);
    b.colocation.Train(perf_model, clara::WorkloadSpec::SmallFlows());
  }
  return clara::serve::SerializeBundle(b);
}

}  // namespace servebench
