// The benchmark's in-process view of the program: the answer reference, the
// accuracy ground truth, and the traced replays.
//
//   * Reference::Body is ClaraAnalyzer::Analyze on the registry program,
//     run with the daemon's default AnalyzerOptions on the same bundle file
//     and encoded exactly as the daemon encodes a response body.
//   * ComputeLabel (Fig 8 truth) sums the NIC backend's compiled compute
//     instructions; OptimalCores (Fig 11 truth) is PerfModel::OptimalCores
//     of the naive demand.
//   * Replay re-runs one request from the benchmark's own code: program
//     resolution as the daemon does it, then every public call Analyze
//     makes, in Analyze's order, each timed as one span. Its composed body
//     must equal Analyze's byte for byte.
//   * ReplayTraining re-runs `clara_cli train` stage by stage; its bundle
//     must be byte-identical to the one the CLI writes.
#ifndef SERVEBENCH_HARNESS_REFERENCE_H_
#define SERVEBENCH_HARNESS_REFERENCE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "src/core/analyzer.h"
#include "src/serve/proto.h"

namespace servebench {

// The analyzer options a clara_serve daemon started with default flags uses.
clara::AnalyzerOptions DaemonAnalyzerOptions();

// The options `clara_cli train` trains with.
clara::AnalyzerOptions CliTrainOptions();

// The daemon's response body for a finished analysis.
std::string EncodeInsights(const clara::OffloadingInsights& in, const clara::NicConfig& nic);

class Reference {
 public:
  // Loads the bundle; false with *error on failure.
  bool Load(const std::string& bundle_path, std::string* error);

  const clara::ClaraAnalyzer& analyzer() const { return *analyzer_; }
  const clara::AnalyzerOptions& options() const { return opts_; }

  std::string Body(const std::string& element, const clara::WorkloadSpec& w) const;
  double ComputeLabel(const std::string& element) const;
  int OptimalCores(const std::string& element, const clara::WorkloadSpec& w) const;

 private:
  clara::AnalyzerOptions opts_ = DaemonAnalyzerOptions();
  std::unique_ptr<clara::ClaraAnalyzer> analyzer_;
};

// Accumulated span times (microseconds) and counts of a traced replay.
// Names are the per-layer metric names they feed.
struct Spans {
  std::map<std::string, double> us;
  std::map<std::string, double> count;
};

struct ReplayResult {
  bool refused = false;  // the daemon would answer with an error
  std::string body;      // composed response body (empty when refused)
  uint64_t cache_key = 0;  // the daemon's cache key for the request
  double total_us = 0;   // whole replay, spans and the gaps between them
};

// Replays one request. With `spans` null nothing is timed but the same
// calls run (the untraced pass the tracing overhead is measured against).
ReplayResult Replay(const Reference& ref, const clara::serve::InsightRequest& req,
                    Spans* spans);

// Replays `clara_cli train` with spans around each training stage and
// returns the serialized bundle.
std::string ReplayTraining(Spans* spans);

}  // namespace servebench

#endif  // SERVEBENCH_HARNESS_REFERENCE_H_
