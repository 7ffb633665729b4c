// servebench — the serving benchmark's harness binary.
//
//   servebench drive --workload W --seed N --seconds S --socket PATH
//                    --bundle FILE --pid PID [--gen-cpu C] [--rate R]
//       Probes the daemon's cache for cross-talk and its inline answers,
//       prewarms (hit_replay), runs the timed phase, then checks every
//       answer byte for byte against ClaraAnalyzer::Analyze on the same
//       bundle. Prints one JSON object.
//   servebench replay --workload W --seed N --bundle FILE
//       Traced in-process replay of the workload's distinct requests.
//   servebench train-replay --cli-bundle FILE
//       Traced replay of `clara_cli train`; the bundle must match FILE.
//   servebench selftest --bundle FILE
//       The benchmark's own checks (see CmdSelfTest).
//
// Exit codes: 0 ok, 1 harness fault or failed check, 2 usage.
#include <fcntl.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "servebench/harness/gen.h"
#include "servebench/harness/reference.h"
#include "servebench/harness/schedule.h"
#include "src/elements/elements.h"
#include "src/lang/parse.h"
#include "src/lang/printer.h"
#include "src/util/parallel.h"

namespace servebench {
namespace {

using clara::serve::ErrorCode;
using clara::serve::InsightRequest;
using clara::serve::InsightResponse;
using Clock = std::chrono::steady_clock;

// Distinct requests the traced replay covers: the first blocks of the
// schedule (hit_replay: its whole working set).
size_t ReplayBlocks(Mix mix) { return mix == Mix::kMissHeader ? 2 : 1; }

// ---- small helpers ----

class Json {
 public:
  Json& Num(const std::string& k, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return Raw(k, buf);
  }
  Json& Bool(const std::string& k, bool v) { return Raw(k, v ? "true" : "false"); }
  Json& Raw(const std::string& k, const std::string& v) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + k + "\":") + v;
    return *this;
  }
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string JsonList(const std::vector<std::string>& items) {
  std::string out = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    out += (i ? ",\"" : "\"") + items[i] + "\"";
  }
  return out + "]";
}

// Nearest-rank percentile (p in [0, 100]) of an unsorted sample.
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

// The highest percentile, up to p99, with at least ten samples beyond it.
double TailPercentile(size_t n) {
  for (double p : {99.0, 95.0, 90.0, 75.0}) {
    if (static_cast<double>(n) * (1 - p / 100.0) >= 10) {
      return p;
    }
  }
  return 50.0;
}

// Answers per window of the tail estimate, and the fewest windows a run
// must fill to use them.
constexpr size_t kTailWindow = 200;
constexpr size_t kMinTailWindows = 10;

// The tail latency of a run: each window of kTailWindow consecutive answers
// (in arrival order) gives its TailPercentile, p95, which has ten samples
// beyond it, and the run reports the first quartile of those window tails.
// On a shared host a vCPU is preempted for 1-20 ms a few times a second;
// each such stall delays every request due during it, so whether one
// window's tail reads 0.3 ms or 10 ms depends on whether the host stalled in
// its fraction of a second (0.2 s for hit_replay). The first quartile reads
// the program's own tail in the quieter windows. A run with fewer than
// kMinTailWindows windows reports its whole-run TailPercentile instead.
bool WindowedTail(size_t answers) { return answers >= kMinTailWindows * kTailWindow; }

double TailLatency(const std::vector<double>& lat) {
  if (!WindowedTail(lat.size())) {
    return Percentile(lat, TailPercentile(lat.size()));
  }
  std::vector<double> per_window;
  for (size_t start = 0; start + kTailWindow <= lat.size(); start += kTailWindow) {
    per_window.push_back(
        Percentile(std::vector<double>(lat.begin() + start, lat.begin() + start + kTailWindow),
                   TailPercentile(kTailWindow)));
  }
  return Percentile(per_window, 25);
}

// Value of the first numeric field `field` after `anchor` in a JSON text.
double JsonField(const std::string& json, const std::string& anchor, const std::string& field) {
  size_t at = json.find("\"" + anchor + "\"");
  if (at == std::string::npos) {
    return 0;
  }
  at = json.find("\"" + field + "\":", at);
  return at == std::string::npos ? 0 : std::strtod(json.c_str() + at + field.size() + 3, nullptr);
}

// utime + stime of a process, in seconds.
double ProcessCpuSeconds(int pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/stat");
  std::string s((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
  size_t close = s.rfind(')');
  if (close == std::string::npos) {
    return 0;
  }
  std::istringstream rest(s.substr(close + 2));
  std::string field;
  double ticks = 0;
  for (int i = 3; rest >> field && i <= 15; ++i) {
    if (i == 14 || i == 15) {
      ticks += std::strtod(field.c_str(), nullptr);
    }
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

// Peak resident set (VmHWM) of a process, in MB.
double PeakRssMb(int pid) {
  std::ifstream f("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0;
}

InsightRequest MakeRequest(const Key& k, uint64_t id) {
  InsightRequest req;
  req.id = id;
  if (k.inline_src) {
    req.source = clara::ToSource(clara::MakeElementByName(k.element));
  } else {
    req.element = k.element;
  }
  req.workload = k.workload;
  return req;
}

std::string KeyName(const Key& k) { return k.element + (k.inline_src ? ":inline" : ":name"); }

// Decodes a cached-body byte string as the daemon's response.
bool DecodeBody(const std::string& body, InsightResponse* out) {
  std::string err;
  return clara::serve::ParseResponse(clara::serve::EncodeResponseWithBody(0, body), out, &err);
}

struct Args {
  std::map<std::string, std::string> kv;
  std::string Get(const std::string& k, const std::string& def = "") const {
    auto it = kv.find(k);
    return it == kv.end() ? def : it->second;
  }
};

int Fail(const std::string& what) {
  std::fprintf(stderr, "servebench: %s\n", what.c_str());
  return 1;
}

// ---- drive ----

// While alive, keeps every CPU of `cpus` busy with a SCHED_IDLE spin thread,
// so that no vCPU halts. On a VM a halted vCPU is woken through the
// hypervisor; a cache hit crosses several thread wake-ups in the daemon, and
// on the 4-vCPU host this was built on those wake-ups added 45-80 us to the
// median round trip of a hit (about 0.1 ms of work), and milliseconds while
// other tenants loaded the host. A SCHED_IDLE thread runs only when nothing
// else wants its CPU: a woken daemon or generator thread preempts it at
// once. A thread that cannot be made SCHED_IDLE does not spin.
class IdleSpinners {
 public:
  explicit IdleSpinners(const cpu_set_t& cpus) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &cpus)) {
        threads_.emplace_back([this, cpu] { Spin(cpu); });
      }
    }
  }
  ~IdleSpinners() {
    stop_ = true;
    for (std::thread& t : threads_) {
      t.join();
    }
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  void Spin(int cpu) {
    // Both calls act on the calling thread only.
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_param param{};
    if (sched_setaffinity(0, sizeof(one), &one) != 0 ||
        sched_setscheduler(0, SCHED_IDLE, &param) != 0) {
      return;
    }
    while (!stop_.load(std::memory_order_relaxed)) {
    }
  }

  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

// How one answer compares with the reference.
enum class Verdict { kCorrect, kRefused, kWrong };

struct Checked {
  std::vector<std::string> refs;                  // reference body per key
  std::vector<std::vector<Verdict>> body_verdict;  // per key, per distinct body
};

// References for `keys` (Analyze on the registry program), computed in
// parallel, and the verdict on every distinct body answered for them.
Checked CheckBodies(const Reference& ref, const std::vector<Key>& keys,
                    const std::vector<KeyBodies>& bodies) {
  Checked c;
  c.refs = clara::ParallelMap<std::string>(keys.size(), [&](size_t i) {
    return i < bodies.size() && !bodies[i].bodies.empty()
               ? ref.Body(keys[i].element, keys[i].workload)
               : std::string();
  });
  c.body_verdict.resize(keys.size());
  for (size_t i = 0; i < keys.size() && i < bodies.size(); ++i) {
    for (const std::string& b : bodies[i].bodies) {
      InsightResponse r;
      bool refused = !DecodeBody(b, &r) || r.error != ErrorCode::kOk;
      c.body_verdict[i].push_back(refused          ? Verdict::kRefused
                                  : b == c.refs[i] ? Verdict::kCorrect
                                                   : Verdict::kWrong);
    }
  }
  return c;
}

// Sends probe requests one at a time, in order, on one connection.
bool SendProbe(Generator& gen, const std::vector<Key>& keys, std::vector<KeyBodies>* bodies,
               std::string* error) {
  std::vector<uint32_t> order(keys.size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<uint32_t>(i);
  }
  Phase ph;
  ph.keys = &keys;
  ph.order = &order;
  ph.connections = 1;
  PhaseResult res;
  return gen.Run(ph, bodies, &res, error);
}

// The elements whose probe answers depend on the order of the requests.
std::vector<std::string> Crosstalk(const Reference& ref, const std::vector<Key>& keys,
                                   const std::vector<KeyBodies>& bodies) {
  std::vector<std::string> crosstalk;
  Checked c = CheckBodies(ref, keys, bodies);
  for (size_t e = 0; e + 3 < keys.size(); e += 4) {
    Verdict inline_a = c.body_verdict[e][0];
    Verdict name_a = c.body_verdict[e + 1][0];
    Verdict name_b = c.body_verdict[e + 2][0];
    Verdict inline_b = c.body_verdict[e + 3][0];
    if (name_a != Verdict::kCorrect || name_b != Verdict::kCorrect || inline_a != inline_b) {
      crosstalk.push_back(keys[e].element);
    }
  }
  return crosstalk;
}

int CmdDrive(const Args& a) {
  Mix mix;
  if (!ParseMix(a.Get("workload"), &mix)) {
    return Fail("unknown workload '" + a.Get("workload") + "'");
  }
  uint64_t seed = std::strtoull(a.Get("seed", "1").c_str(), nullptr, 10);
  double seconds = std::strtod(a.Get("seconds", "10").c_str(), nullptr);
  int pid = std::atoi(a.Get("pid", "0").c_str());
  std::string error;
  Reference ref;
  if (!ref.Load(a.Get("bundle"), &error)) {
    return Fail(error);
  }
  Generator gen;
  if (!gen.Connect(a.Get("socket"), kConnections, &error)) {
    return Fail(error);
  }
  Schedule sched(mix, seed);

  // Nothing in this process but the generator thread (and, in the timed
  // phase, the idle spinners) runs until the timed phase ends: the probes
  // are sent now and checked with everything else.
  std::vector<Key> probe_keys = sched.ProbeRequests();
  std::vector<KeyBodies> probe_bodies(probe_keys.size());
  if (!SendProbe(gen, probe_keys, &probe_bodies, &error)) {
    return Fail("probe: " + error);
  }
  std::vector<Key> inline_keys = sched.InlineProbeRequests();
  std::vector<KeyBodies> inline_bodies(inline_keys.size());
  if (!SendProbe(gen, inline_keys, &inline_bodies, &error)) {
    return Fail("inline probe: " + error);
  }

  // The generator thread runs alone on --gen-cpu through prewarm and the
  // timed phase (the daemon is kept off that CPU), so that it never
  // competes with the daemon for a core.
  cpu_set_t all_cpus;
  sched_getaffinity(0, sizeof(all_cpus), &all_cpus);
  int gen_cpu = std::atoi(a.Get("gen-cpu", "-1").c_str());
  if (gen_cpu >= 0) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(gen_cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
  }
  std::vector<uint32_t> order;
  std::vector<KeyBodies> bodies;
  if (mix == Mix::kHitReplay) {
    // Prewarm: every working-set key once, so the timed phase only hits.
    std::vector<uint32_t> warm;
    sched.AppendBlock(0, &warm);
    Phase ph;
    ph.keys = &sched.keys();
    ph.order = &warm;
    PhaseResult res;
    if (!gen.Run(ph, &bodies, &res, &error)) {
      return Fail("prewarm: " + error);
    }
  }

  std::string stats0, health0, stats1, health1;
  if (!gen.Control(clara::serve::ControlOp::kStats, &stats0, &error) ||
      !gen.Control(clara::serve::ControlOp::kHealth, &health0, &error)) {
    return Fail(error);
  }
  double cpu0 = ProcessCpuSeconds(pid);

  Phase ph;
  ph.keys = &sched.keys();
  ph.order = &order;
  uint64_t blocks = 0;
  // hit_replay runs open loop at kHitRate unless --rate overrides it; a
  // rate of 0 runs it closed loop, which is how its capacity is measured.
  double rate = sched.open_loop() ? std::strtod(a.Get("rate", std::to_string(kHitRate)).c_str(),
                                                nullptr)
                                  : 0;
  uint64_t first_block = sched.open_loop() ? 1 : 0;  // hit_replay's block 0 prewarmed
  if (rate > 0) {
    ph.open_loop = true;
    ph.rate = rate;
    while (static_cast<double>(order.size()) < rate * seconds) {
      sched.AppendBlock(first_block + blocks++, &order);
    }
  } else {
    // Whole blocks until the timed phase has lasted `seconds`.
    ph.extend = [&](double elapsed) {
      if (elapsed >= seconds && blocks > 0) {
        return false;
      }
      sched.AppendBlock(first_block + blocks++, &order);
      return true;
    };
  }
  PhaseResult timed;
  {
    // Only the open loop leaves the daemon's threads idle between requests.
    // In the closed loops the spinners changed no median and widened the
    // run-to-run spread.
    std::optional<IdleSpinners> spinners;
    if (ph.open_loop) {
      spinners.emplace(all_cpus);
    }
    if (!gen.Run(ph, &bodies, &timed, &error)) {
      return Fail("timed phase: " + error);
    }
  }
  double cpu1 = ProcessCpuSeconds(pid);
  double rss_mb = PeakRssMb(pid);
  sched_setaffinity(0, sizeof(all_cpus), &all_cpus);
  if (!gen.Control(clara::serve::ControlOp::kStats, &stats1, &error) ||
      !gen.Control(clara::serve::ControlOp::kHealth, &health1, &error)) {
    return Fail(error);
  }

  // Check every answer. Keys answered only outside the timed phase (none
  // for the miss mixes; the prewarm of hit_replay) are checked too.
  std::vector<std::string> crosstalk = Crosstalk(ref, probe_keys, probe_bodies);
  uint64_t probe_refused = 0, probe_wrong = 0;
  std::map<std::string, std::pair<uint64_t, uint64_t>> per_element;  // refused, wrong
  std::set<std::string> unexpected;
  Checked inline_check = CheckBodies(ref, inline_keys, inline_bodies);
  for (size_t i = 0; i < inline_keys.size(); ++i) {
    Verdict v = inline_check.body_verdict[i][0];
    if (v == Verdict::kCorrect) {
      continue;
    }
    (v == Verdict::kRefused ? probe_refused : probe_wrong) += 1;
    auto& pe = per_element["probe " + KeyName(inline_keys[i])];
    (v == Verdict::kRefused ? pe.first : pe.second) += 1;
    if (!KnownInlineDefect(inline_keys[i].element)) {
      unexpected.insert(KeyName(inline_keys[i]));
    }
  }
  const std::vector<Key>& keys = sched.keys();
  Checked check = CheckBodies(ref, keys, bodies);
  std::vector<char> answered_ok(keys.size(), 0);
  uint64_t correct = 0, refused = 0, wrong = 0;
  std::vector<double> lat_ms, queue, transport, resolve, encode, infer, analyze, lag_ms;
  double stage_us = 0;
  for (const Answer& ans : timed.answers) {
    Verdict v = check.body_verdict[ans.key][ans.body];
    if (v == Verdict::kCorrect) {
      ++correct;
      lat_ms.push_back(ans.latency_us / 1e3);
    } else {
      (v == Verdict::kRefused ? refused : wrong) += 1;
      auto& pe = per_element[KeyName(keys[ans.key])];
      (v == Verdict::kRefused ? pe.first : pe.second) += 1;
    }
    if (v != Verdict::kRefused) {
      answered_ok[ans.key] = 1;
    }
    const auto& bd = ans.breakdown;
    queue.push_back(bd.queue_us);
    transport.push_back(ans.rtt_us - bd.total_us);
    resolve.push_back(bd.parse_us);
    encode.push_back(bd.encode_us);
    infer.push_back(bd.infer_us);
    analyze.push_back(bd.analyze_us);
    stage_us += double(bd.parse_us) + bd.infer_us + bd.analyze_us + bd.encode_us;
    lag_ms.push_back(ans.lag_us / 1e3);
  }
  // Every distinct answer, prewarm included, is right: the workloads send
  // no known defect.
  for (size_t i = 0; i < keys.size() && i < bodies.size(); ++i) {
    for (Verdict v : check.body_verdict[i]) {
      if (v != Verdict::kCorrect) {
        unexpected.insert(KeyName(keys[i]));
      }
    }
  }

  // Accuracy against ground truth, over the distinct answered requests.
  std::vector<uint32_t> answered;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (answered_ok[i]) {
      answered.push_back(static_cast<uint32_t>(i));
    }
  }
  std::map<std::string, double> labels;
  for (const std::string& e : AllElements()) {
    labels[e] = ref.ComputeLabel(e);
  }
  std::vector<int> optimal = clara::ParallelMap<int>(answered.size(), [&](size_t i) {
    const Key& k = keys[answered[i]];
    return ref.OptimalCores(k.element, k.workload);
  });
  double abs_err = 0, truth = 0, cores_err = 0;
  for (size_t i = 0; i < answered.size(); ++i) {
    const Key& k = keys[answered[i]];
    const KeyBodies& kb = bodies[answered[i]];
    size_t b = 0;
    while (check.body_verdict[answered[i]][b] == Verdict::kRefused) {
      ++b;
    }
    InsightResponse r;
    DecodeBody(kb.bodies[b], &r);
    abs_err += std::abs(r.total_compute - labels[k.element]);
    truth += labels[k.element];
    cores_err += std::abs(r.suggested_cores - optimal[i]);
  }

  uint64_t attempted = timed.answers.size();
  double tail_pct = TailPercentile(WindowedTail(lat_ms.size()) ? kTailWindow : lat_ms.size());
  double batch_count = JsonField(stats1, "serve.batch.size", "count") -
                       JsonField(stats0, "serve.batch.size", "count");
  double batch_sum = JsonField(stats1, "serve.batch.size", "sum") -
                     JsonField(stats0, "serve.batch.size", "sum");
  double hits = JsonField(health1, "cache", "hits") - JsonField(health0, "cache", "hits");
  double misses = JsonField(health1, "cache", "misses") - JsonField(health0, "cache", "misses");

  std::vector<std::string> failures;
  for (const auto& [name, counts] : per_element) {
    failures.push_back(name + " refused=" + std::to_string(counts.first) +
                       " wrong=" + std::to_string(counts.second));
  }
  Json j;
  j.Bool("correct", unexpected.empty())
      .Num("attempted", static_cast<double>(attempted))
      .Num("failed", static_cast<double>(refused + wrong))
      .Num("blocks", static_cast<double>(blocks))
      .Num("phase_s", timed.seconds)
      .Num("throughput_rps", static_cast<double>(correct) / timed.seconds)
      .Num("latency_p50_ms", Percentile(lat_ms, 50))
      .Num("latency_tail_ms", TailLatency(lat_ms))
      .Num("latency_tail_pct", tail_pct)
      .Num("latency_p99_whole_run_ms", Percentile(lat_ms, 99))
      .Num("latency_samples", static_cast<double>(lat_ms.size()))
      .Num("peak_rss_mb", rss_mb)
      .Num("predict_wmape", truth > 0 ? abs_err / truth : 0)
      .Num("cores_mae", answered.empty() ? 0 : cores_err / static_cast<double>(answered.size()))
      .Num("distinct_answered", static_cast<double>(answered.size()))
      .Num("serve.queue_us.p50", Percentile(queue, 50))
      .Num("serve.queue_us.p99", Percentile(queue, 99))
      .Num("serve.transport_us.p50", Percentile(transport, 50))
      .Num("serve.resolve_us.p50", Percentile(resolve, 50))
      .Num("serve.encode_us.p50", Percentile(encode, 50))
      .Num("serve.infer_us.p50", Percentile(infer, 50))
      .Num("serve.analyze_us.p50", Percentile(analyze, 50))
      .Num("serve.batch_size.mean", batch_count > 0 ? batch_sum / batch_count : 0)
      .Num("serve.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0)
      .Num("serve.dispatcher_busy_share", stage_us / (timed.seconds * 1e6))
      .Num("serve.cpu_ms_per_answer", (cpu1 - cpu0) * 1e3 / static_cast<double>(attempted))
      .Num("serve.refused", static_cast<double>(probe_refused + refused))
      .Num("serve.wrong", static_cast<double>(probe_wrong + wrong))
      .Num("serve.cache_crosstalk", static_cast<double>(crosstalk.size()))
      .Num("gen.lag_ms_p99", Percentile(lag_ms, 99))
      .Raw("crosstalk_elements", JsonList(crosstalk))
      .Raw("failures", JsonList(failures))
      .Raw("unexpected_failures",
           JsonList(std::vector<std::string>(unexpected.begin(), unexpected.end())));
  std::printf("%s\n", j.Done().c_str());
  return 0;
}

// ---- replay ----

int CmdReplay(const Args& a) {
  Mix mix;
  if (!ParseMix(a.Get("workload"), &mix)) {
    return Fail("unknown workload '" + a.Get("workload") + "'");
  }
  uint64_t seed = std::strtoull(a.Get("seed", "1").c_str(), nullptr, 10);
  std::string error;
  Reference ref;
  if (!ref.Load(a.Get("bundle"), &error)) {
    return Fail(error);
  }
  Schedule sched(mix, seed);
  std::vector<uint32_t> order;
  for (size_t b = 0; b < ReplayBlocks(mix); ++b) {
    sched.AppendBlock(b, &order);
  }
  std::vector<InsightRequest> reqs;
  for (size_t i = 0; i < sched.keys().size(); ++i) {
    reqs.push_back(MakeRequest(sched.keys()[i], i + 1));
  }

  // Pass 1 (also the warm-up): Analyze on each program as the daemon would
  // resolve it — the byte-for-byte reference for the replay.
  std::vector<std::string> expect(reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    ReplayResult probe = Replay(ref, reqs[i], nullptr);
    if (probe.refused) {
      continue;
    }
    clara::Program p = reqs[i].source.empty() ? clara::MakeElementByName(reqs[i].element)
                                              : clara::ParseProgram(reqs[i].source).program;
    expect[i] = EncodeInsights(ref.analyzer().Analyze(std::move(p), reqs[i].workload),
                               ref.options().nic);
  }
  // Pass 2: untraced; pass 3: traced.
  double untraced_us = 0, traced_us = 0;
  for (const auto& r : reqs) {
    untraced_us += Replay(ref, r, nullptr).total_us;
  }
  Spans spans;
  size_t analyzed = 0, by_name = 0, inline_n = 0, mismatched = 0;
  for (size_t i = 0; i < reqs.size(); ++i) {
    ReplayResult res = Replay(ref, reqs[i], &spans);
    traced_us += res.total_us;
    (reqs[i].source.empty() ? by_name : inline_n) += 1;
    if (!res.refused) {
      ++analyzed;
    }
    if (res.body != expect[i]) {
      ++mismatched;
      std::fprintf(stderr, "servebench: replay of %s (%s) differs from Analyze\n",
                   sched.keys()[i].element.c_str(), reqs[i].source.empty() ? "name" : "inline");
    }
  }
  double span_sum = 0;
  for (const auto& [name, us] : spans.us) {
    span_sum += us;
  }
  auto per = [](double total, size_t n) { return n == 0 ? 0.0 : total / static_cast<double>(n); };
  auto us = [&](const char* name) { return spans.us[name]; };
  Json j;
  j.Bool("replay_matches", mismatched == 0)
      .Num("replayed", static_cast<double>(reqs.size()))
      .Num("elements.make_us", per(us("elements.make"), by_name))
      .Num("lang.parse_us", per(us("lang.parse"), inline_n))
      .Num("lang.check_us", per(us("lang.check"), inline_n))
      .Num("serve.cache_key_us", per(us("serve.cache_key"), reqs.size()))
      .Num("serve.proto_us", per(us("serve.proto"), reqs.size()))
      .Num("lang.lower_us", per(us("lang.lower"), analyzed))
      .Num("workload.trace_us", per(us("workload.trace"), analyzed))
      .Num("lang.interp_us", per(us("lang.interp"), analyzed))
      .Num("lang.interp_ns_per_packet", per(us("lang.interp") * 1e3,
                                            static_cast<size_t>(spans.count["lang.packets"])))
      .Num("ml.predict_us", per(us("ml.predict"), analyzed))
      .Num("ml.blocks_per_request", per(spans.count["ml.blocks"], analyzed))
      .Num("core.algo_id_us", per(us("core.algo_id"), analyzed))
      .Num("nic.backend_us", per(us("nic.backend"), analyzed))
      .Num("nic.demand_us", per(us("nic.demand"), analyzed))
      .Num("core.scaleout_us", per(us("core.scaleout"), analyzed))
      .Num("core.placement_us", per(us("core.placement"), analyzed))
      .Num("solver.ilp_nodes", per(spans.count["solver.ilp_nodes"], analyzed))
      .Num("core.coalescing_us", per(us("core.coalescing"), analyzed))
      .Num("nic.perf_model_us", per(us("nic.perf_model"), analyzed))
      .Num("replay.other_share", traced_us > 0 ? (traced_us - span_sum) / traced_us : 0)
      .Num("trace.overhead_share", untraced_us > 0 ? (traced_us - untraced_us) / untraced_us : 0);
  std::printf("%s\n", j.Done().c_str());
  return mismatched == 0 ? 0 : 1;
}

// ---- train-replay ----

std::string ReadFile(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(f)), std::istreambuf_iterator<char>());
}

int CmdTrainReplay(const Args& a) {
  std::string cli_path = a.Get("cli-bundle");
  std::string cli = ReadFile(cli_path);
  if (cli.empty()) {
    return Fail("cannot read " + cli_path);
  }
  Spans spans;
  std::string replayed = ReplayTraining(&spans);
  std::vector<double> load_ms;
  for (int i = 0; i < 5; ++i) {
    Clock::time_point t0 = Clock::now();
    Reference r;
    std::string error;
    if (!r.Load(cli_path, &error)) {
      return Fail(error);
    }
    load_ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - t0).count());
  }
  Json j;
  j.Bool("bundle_matches", replayed == cli);
  for (const char* stage : {"train.measure_corpus", "train.predictor", "train.algo_id",
                            "train.scaleout", "train.colocation"}) {
    j.Num(std::string(stage) + "_s", spans.us[stage] / 1e6);
  }
  j.Num("serve.artifact_load_ms", Percentile(load_ms, 50));
  std::printf("%s\n", j.Done().c_str());
  if (replayed != cli) {
    return Fail("training replay bundle differs from " + cli_path);
  }
  return 0;
}

// ---- selftest ----

int SelfTestFailure(const std::string& what) {
  std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  return 1;
}

// A daemon stand-in that stalls `stall_ms` before reading anything, then
// answers every request at once with a fixed body. Destruction unblocks and
// joins its thread even when no client ever connected.
class StubDaemon {
 public:
  StubDaemon(std::string path, int stall_ms) : path_(std::move(path)), stall_ms_(stall_ms) {}
  ~StubDaemon() {
    stop_ = true;
    if (listen_fd_ >= 0) {
      ::shutdown(listen_fd_, SHUT_RDWR);  // wakes a blocked accept()
    }
    if (thread_.joinable()) {
      thread_.join();
    }
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
    }
    ::unlink(path_.c_str());
  }
  StubDaemon(const StubDaemon&) = delete;
  StubDaemon& operator=(const StubDaemon&) = delete;

  bool Start(int connections, int requests) {
    ::unlink(path_.c_str());
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::listen(listen_fd_, connections) != 0) {
      return false;
    }
    thread_ = std::thread([this, connections, requests] { Serve(connections, requests); });
    return true;
  }

 private:
  void Serve(int connections, int requests) {
    std::vector<int> fds;
    for (int i = 0; i < connections && !stop_; ++i) {
      int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) {
        stop_ = true;
      } else {
        fds.push_back(fd);
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
    std::vector<clara::serve::FrameReader> readers(fds.size());
    int answered = 0;
    while (answered < requests && !stop_) {
      for (size_t c = 0; c < fds.size(); ++c) {
        char buf[1 << 16];
        ssize_t n = ::recv(fds[c], buf, sizeof(buf), MSG_DONTWAIT);
        if (n > 0) {
          readers[c].Feed(buf, static_cast<size_t>(n));
        }
        std::string frame;
        while (readers[c].Next(&frame)) {
          InsightRequest req;
          std::string err;
          clara::serve::ParseRequest(frame, &req, &err);
          InsightResponse resp;
          resp.id = req.id;
          resp.nf_name = "stub";
          std::string out;
          clara::serve::AppendFrame(&out, clara::serve::EncodeResponse(resp));
          ::send(fds[c], out.data(), out.size(), MSG_NOSIGNAL);
          ++answered;
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    for (int fd : fds) {
      ::close(fd);
    }
  }

  std::string path_;
  int stall_ms_;
  int listen_fd_ = -1;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: uses the members above
};

int CmdSelfTest(const Args& a) {
  std::string error;
  Reference ref;
  if (!ref.Load(a.Get("bundle"), &error)) {
    return Fail(error);
  }

  // 1. A one-byte corruption of a response body is caught.
  {
    std::vector<Key> keys = {{"aggcounter", false, clara::WorkloadSpec::SmallFlows()}};
    std::string good = ref.Body("aggcounter", keys[0].workload);
    std::vector<KeyBodies> bodies(1);
    bodies[0].Add(good);
    for (size_t pos : {good.size() / 3, good.size() - 1}) {
      std::string bad = good;
      bad[pos] = static_cast<char>(bad[pos] ^ 0x01);
      bodies[0].Add(bad);
    }
    Checked c = CheckBodies(ref, keys, bodies);
    if (c.body_verdict[0].size() != 3 || c.body_verdict[0][0] != Verdict::kCorrect ||
        c.body_verdict[0][1] != Verdict::kWrong || c.body_verdict[0][2] != Verdict::kWrong) {
      return SelfTestFailure("a one-byte body corruption was not caught");
    }
    std::printf("selftest ok: one-byte body corruption caught\n");
  }

  // 2. The replay reproduces Analyze for every element x flow class.
  {
    size_t cases = 0;
    for (const std::string& e : AllElements()) {
      for (bool small : {true, false}) {
        clara::WorkloadSpec w =
            small ? clara::WorkloadSpec::SmallFlows() : clara::WorkloadSpec::LargeFlows();
        InsightRequest req = MakeRequest({e, false, w}, 1);
        ReplayResult r = Replay(ref, req, nullptr);
        if (r.refused || r.body != ref.Body(e, w)) {
          return SelfTestFailure("replay differs from Analyze on " + e);
        }
        ++cases;
      }
    }
    std::printf("selftest ok: replay equals Analyze on %zu cases\n", cases);
  }

  // 3. The training replay writes the CLI's bundle byte for byte.
  {
    std::string cli = ReadFile(a.Get("bundle"));
    if (cli.empty() || ReplayTraining(nullptr) != cli) {
      return SelfTestFailure("training replay bundle differs from clara_cli train's");
    }
    std::printf("selftest ok: training replay bundle is byte-identical\n");
  }

  // 4. The request schedule is a pure function of the seed.
  {
    auto render = [](Mix mix, uint64_t seed) {
      Schedule s(mix, seed);
      std::vector<uint32_t> order;
      for (uint64_t b = 0; b < 3; ++b) {
        s.AppendBlock(b, &order);
      }
      std::string out;
      for (uint32_t k : order) {
        out += clara::serve::EncodeRequest(MakeRequest(s.keys()[k], 0));
      }
      for (const Key& k : s.ProbeRequests()) {
        out += clara::serve::EncodeRequest(MakeRequest(k, 0));
      }
      for (const Key& k : s.InlineProbeRequests()) {
        out += clara::serve::EncodeRequest(MakeRequest(k, 0));
      }
      return out;
    };
    for (Mix mix : {Mix::kMissHeader, Mix::kMissPayload, Mix::kHitReplay}) {
      if (render(mix, 7) != render(mix, 7) || render(mix, 7) == render(mix, 8)) {
        return SelfTestFailure(std::string("schedule of ") + MixName(mix) +
                               " is not a function of the seed");
      }
    }
    std::printf("selftest ok: schedules are pure functions of the seed\n");
  }

  // 5. A stalled daemon inflates open-loop latency instead of hiding it:
  // requests due during the stall are timed from when they were due.
  {
    const int kStallMs = 300, kRequests = 400;
    const double kRate = 1000;
    std::string path = a.Get("socket-dir", ".") + "/stub.sock";
    StubDaemon stub(path, kStallMs);
    if (!stub.Start(kConnections, kRequests)) {
      return SelfTestFailure("stub daemon could not listen on " + path);
    }
    Generator gen;
    if (!gen.Connect(path, kConnections, &error)) {
      return SelfTestFailure(error);
    }
    std::vector<Key> keys = {{"aggcounter", false, clara::WorkloadSpec::SmallFlows()}};
    std::vector<uint32_t> order(kRequests, 0);
    Phase ph;
    ph.keys = &keys;
    ph.order = &order;
    ph.open_loop = true;
    ph.rate = kRate;
    std::vector<KeyBodies> bodies;
    PhaseResult res;
    if (!gen.Run(ph, &bodies, &res, &error)) {
      return SelfTestFailure(error);
    }
    std::vector<double> lat;
    for (const Answer& ans : res.answers) {
      lat.push_back(ans.latency_us / 1e3);
    }
    // The first request waited the whole stall; those due during it waited
    // the rest of it, so a quarter of all requests exceed a third of it.
    if (res.answers.size() != kRequests || lat.front() < kStallMs * 0.9 ||
        Percentile(lat, 75) < kStallMs / 3.0) {
      return SelfTestFailure("stalled stub did not inflate open-loop latency (first " +
                             std::to_string(lat.front()) + " ms, p75 " +
                             std::to_string(Percentile(lat, 75)) + " ms)");
    }
    std::printf("selftest ok: a %d ms stall shows as open-loop latency (first %.0f ms, p75 %.0f ms)\n",
                kStallMs, lat.front(), Percentile(lat, 75));
  }
  std::printf("selftest: all checks passed\n");
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: servebench drive --workload W --seed N --seconds S --socket PATH "
               "--bundle FILE --pid PID\n"
               "       servebench replay --workload W --seed N --bundle FILE\n"
               "       servebench train-replay --cli-bundle FILE\n"
               "       servebench selftest --bundle FILE [--socket-dir DIR]\n");
  return 2;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  using namespace servebench;
  if (argc < 2) {
    return Usage();
  }
  Args a;
  if (argc % 2 != 0) {
    return Usage();
  }
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      return Usage();
    }
    a.kv[argv[i] + 2] = argv[i + 1];
  }
  std::string cmd = argv[1];
  if (cmd == "drive") {
    return CmdDrive(a);
  }
  if (cmd == "replay") {
    return CmdReplay(a);
  }
  if (cmd == "train-replay") {
    return CmdTrainReplay(a);
  }
  if (cmd == "selftest") {
    return CmdSelfTest(a);
  }
  return Usage();
}
