// clara_serve — the Clara insight-serving daemon.
//
// Loads a pre-trained model bundle from the artifact store (written by
// `clara_cli train --model-dir=DIR`) and answers insight requests over a
// length-prefixed wire protocol (src/serve/proto.h) without ever retraining.
//
// Transports:
//   --pipe          read request frames from stdin, write response frames to
//                   stdout (the default; composes with clara_client --emit)
//   --socket=PATH   listen on a Unix domain socket. The default transport is
//                   an epoll event loop (src/serve/eventloop.h) serving many
//                   clients concurrently: per-connection frame reassembly,
//                   one ready queue of connections served by one worker per
//                   thread (CLARA_THREADS, default all cores) feeding the
//                   engine queue, and bounded per-connection write buffers
//                   (--max-outbound-bytes) that disconnect slow readers.
//                   --transport=sequential keeps the legacy one-connection-
//                   at-a-time loop for byte-identity comparisons. Either
//                   way, a failed connection is dropped and logged — the
//                   daemon keeps serving the others. Socket mode takes a
//                   flock()'d "<socket>.pid" pidfile before unlinking the
//                   path, so a second daemon refuses to start instead of
//                   deleting a live sibling's socket.
//
// All requests buffered at once are batched through the serving engine, so
// N concurrent cache misses are analysed in parallel (requests from
// different connections batch together through the shared Submit() funnel),
// and a program's prediction, accelerator class and NIC costs are computed
// once and memoized (--cache=N bounds the memo as well as the result cache).
// Malformed payloads and oversized frames get structured error responses;
// SIGINT/SIGTERM shut the daemon down cleanly.
//
// Self-healing plane:
//   * SIGHUP (or a control Reload frame) hot-reloads the bundle from
//     --model-dir: the candidate is CRC-checked and canary-validated off the
//     serving path, then atomically swapped in; in-flight batches finish on
//     the old model and a rejected candidate leaves it serving. Health
//     reports the bumped artifact_version.
//   * --fault=SPEC (or CLARA_FAULT=SPEC) arms the deterministic fault
//     injector — "site:prob[:seed]" entries, see src/util/fault.h — strictly
//     AFTER the initial bundle load, so chaos sweeps over binio/artifact
//     sites cannot prevent startup. Injections surface in the stats
//     envelope's "fault" object.
//   * --slo-p99-us also arms brownout degradation: when the rolling p99
//     blows the budget the engine sheds low-priority work with kShedded +
//     retry hints and drops to int8 inference until the window recovers.
//
// Telemetry plane:
//   * Control frames (stats/health/dump/reload) are answered immediately,
//     without entering the request queue — `clara_client stats
//     --socket=PATH` etc.
//   * --trace=FILE records every request's per-stage span tree and writes a
//     Chrome trace (chrome://tracing / Perfetto) at shutdown.
//   * --metrics-jsonl=FILE appends a metrics snapshot every
//     --metrics-interval=MS milliseconds — a time series, not just the
//     shutdown snapshot.
//   * SIGUSR1 dumps the flight recorder (recent requests) to stderr.
//
// Usage:
//   clara_cli train --model-dir=models/
//   clara_client --emit --element=aggcounter --count=4 \
//     | clara_serve --model-dir=models/ --pipe \
//     | clara_client --decode
#include <errno.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/ml/simd.h"
#include "src/obs/export.h"
#include "src/obs/metrics.h"
#include "src/obs/obs.h"
#include "src/obs/trace.h"
#include "src/serve/artifact.h"
#include "src/serve/eventloop.h"
#include "src/serve/server.h"
#include "src/util/fault.h"
#include "src/util/net.h"
#include "src/util/pidfile.h"

namespace {

using namespace clara;

// Lock-free atomic<int> stores are async-signal-safe, and unlike plain
// sig_atomic_t these flags are also read from the epoll loop thread while a
// signal handler may run on any thread.
std::atomic<int> g_stop{0};
std::atomic<int> g_dump_flight{0};
std::atomic<int> g_reload{0};

void OnSignal(int) { g_stop = 1; }

void OnDumpSignal(int) { g_dump_flight = 1; }

void OnReloadSignal(int) { g_reload = 1; }

void InstallSignalHandlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnSignal;
  // No SA_RESTART: blocking read()/accept() must return EINTR so the main
  // loop can observe g_stop (and g_dump_flight / g_reload).
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  sa.sa_handler = OnDumpSignal;
  sigaction(SIGUSR1, &sa, nullptr);
  sa.sa_handler = OnReloadSignal;
  sigaction(SIGHUP, &sa, nullptr);
}

// SIGUSR1: operator asked for the flight recorder. Checked from the serve
// loops whenever a blocking call returns.
void MaybeDumpFlight(serve::ServeEngine& engine) {
  if (g_dump_flight != 0) {
    g_dump_flight = 0;
    std::string dump = engine.DumpJson();
    std::fprintf(stderr, "clara_serve: flight recorder dump:\n%s\n", dump.c_str());
  }
}

// SIGHUP: hot-reload the artifact. A rejected candidate is logged and the
// old model keeps serving — reload never takes the daemon down.
void MaybeReload(serve::ServeEngine& engine, const std::string& bundle_path) {
  if (g_reload == 0) {
    return;
  }
  g_reload = 0;
  std::string error;
  if (engine.ReloadFromFile(bundle_path, &error)) {
    std::fprintf(stderr, "clara_serve: reloaded %s (artifact_version %llu)\n",
                 bundle_path.c_str(),
                 static_cast<unsigned long long>(engine.artifact_version()));
  } else {
    std::fprintf(stderr, "clara_serve: reload rejected, keeping current model: %s\n",
                 error.c_str());
  }
}

// Serves one byte stream (pipe or accepted socket connection) until EOF or
// shutdown. Frames buffered together are submitted together, so the engine
// batches them; responses are written back in request order.
int ServeStream(serve::ServeEngine& engine, const std::string& bundle_path, int in_fd,
                int out_fd) {
  serve::FrameReader reader;
  char buf[1 << 16];
  while (g_stop == 0) {
    MaybeDumpFlight(engine);
    MaybeReload(engine, bundle_path);
    size_t n = 0;
    std::string io_error;
    net::IoStatus st = net::ReadSome(in_fd, buf, sizeof(buf), &n, &io_error);
    if (st == net::IoStatus::kInterrupted) {
      continue;  // signal: re-check the flags
    }
    if (st == net::IoStatus::kError) {
      std::fprintf(stderr, "clara_serve: %s\n", io_error.c_str());
      return 1;
    }
    if (st == net::IoStatus::kEof) {
      break;
    }
    reader.Feed(buf, n);

    std::vector<std::future<serve::InsightResponse>> futures;
    std::string frame;
    std::string out;
    while (reader.Next(&frame)) {
      // Control-plane frames bypass the request queue entirely: stats/health
      // stay responsive even when the queue is saturated.
      if (serve::PeekType(frame) == serve::MsgType::kControlRequest) {
        serve::AppendFrame(&out, engine.HandleControl(frame));
        continue;
      }
      serve::InsightRequest req;
      std::string err;
      if (!serve::ParseRequest(frame, &req, &err)) {
        serve::AppendFrame(&out, serve::ServeEngine::EncodeTransportError(
                                     serve::ErrorCode::kBadRequest, err));
        continue;
      }
      futures.push_back(engine.Submit(std::move(req), static_cast<uint32_t>(frame.size())));
    }
    for (size_t i = reader.TakeOversized(); i > 0; --i) {
      serve::AppendFrame(&out, serve::ServeEngine::EncodeTransportError(
                                   serve::ErrorCode::kOversized,
                                   "frame exceeds the 1 MiB limit"));
    }
    for (auto& f : futures) {
      serve::AppendFrame(&out, serve::EncodeResponse(f.get()));
    }
    if (!out.empty() && !net::WriteAll(out_fd, out, &io_error)) {
      std::fprintf(stderr, "clara_serve: %s\n", io_error.c_str());
      return 1;
    }
  }
  return 0;
}

// Legacy sequential socket transport (--transport=sequential): accepts one
// connection, serves it to completion, then accepts the next. Kept as the
// byte-identity reference for the epoll loop (tests/serve_load.sh compares
// responses across the two) and for debugging. The caller must already hold
// the socket's pidfile lock — the unlink below is only safe then.
int ServeSocket(serve::ServeEngine& engine, const std::string& bundle_path,
                const std::string& path) {
  int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) {
    std::fprintf(stderr, "clara_serve: socket: %s\n", std::strerror(errno));
    return 1;
  }
  struct sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    std::fprintf(stderr, "clara_serve: socket path too long: %s\n", path.c_str());
    ::close(listener);
    return 1;
  }
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(path.c_str());  // stale socket; our flock'd pidfile proves no live owner
  if (::bind(listener, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) < 0 ||
      ::listen(listener, 8) < 0) {
    std::fprintf(stderr, "clara_serve: bind/listen %s: %s\n", path.c_str(),
                 std::strerror(errno));
    ::close(listener);
    return 1;
  }
  std::fprintf(stderr, "clara_serve: listening on %s\n", path.c_str());
  int rc = 0;
  while (g_stop == 0) {
    MaybeDumpFlight(engine);
    MaybeReload(engine, bundle_path);
    int conn = ::accept(listener, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) {
        continue;
      }
      std::fprintf(stderr, "clara_serve: accept: %s\n", std::strerror(errno));
      rc = 1;
      break;
    }
    // Fault site sock.accept: the connection is dropped before a byte is
    // exchanged — the client sees a reset, the daemon serves the next one.
    if (fault::Armed() && fault::ShouldFail(fault::Site::kSockAccept)) {
      ::close(conn);
      continue;
    }
    // A connection that fails mid-stream (client vanished, injected socket
    // fault) is that connection's problem, not the daemon's: log, drop,
    // keep accepting.
    if (ServeStream(engine, bundle_path, conn, conn) != 0) {
      std::fprintf(stderr, "clara_serve: connection dropped\n");
      if (obs::Enabled()) {
        obs::MetricsRegistry::Global().GetCounter("serve.conn.dropped").Add(1);
      }
    }
    ::close(conn);
  }
  ::close(listener);
  ::unlink(path.c_str());
  return rc;
}

// Default socket transport: the epoll multi-client event loop. The tick
// callback runs the signal-flag work (flight dump, SIGHUP reload) on the
// loop thread between epoll waits.
int ServeEpoll(serve::ServeEngine& engine, const std::string& bundle_path,
               serve::EventLoopOptions opts) {
  std::string path = opts.socket_path;
  serve::EventLoop loop(engine, std::move(opts));
  std::string error;
  if (!loop.Init(&error)) {
    std::fprintf(stderr, "clara_serve: %s\n", error.c_str());
    return 1;
  }
  engine.SetTransportStatsProvider([&loop] { return loop.StatsJson(); });
  std::fprintf(stderr, "clara_serve: listening on %s (epoll, %zu worker(s))\n",
               path.c_str(), loop.workers());
  int rc = loop.Run(&g_stop, [&engine, &bundle_path] {
    MaybeDumpFlight(engine);
    MaybeReload(engine, bundle_path);
  });
  engine.SetTransportStatsProvider(nullptr);
  return rc;
}

int Usage() {
  std::fprintf(stderr,
               "usage: clara_serve --model-dir=DIR [--pipe | --socket=PATH]\n"
               "                   [--transport=epoll|sequential]\n"
               "                   [--max-outbound-bytes=N] [--max-conns=N]\n"
               "                   [--queue=N] [--batch=N] [--cache=N]\n"
               "                   [--profile-packets=N]\n"
               "                   [--infer=f64|f32|int8]\n"
               "                   [--metrics-json=FILE] [--trace=FILE]\n"
               "                   [--slo-p99-us=X] [--slo-window-ms=N] [--flight=N]\n"
               "                   [--metrics-jsonl=FILE] [--metrics-interval=MS]\n"
               "                   [--fault=site:prob[:seed],...]\n"
               "                   [--brownout-exit-margin=X]\n"
               "                   [--brownout-exit-hold-ms=N]\n"
               "                   [--brownout-retry-after-ms=N]\n"
               "Serves Clara offloading insights from a pre-trained bundle\n"
               "(create one with `clara_cli train --model-dir=DIR`).\n"
               "SIGHUP hot-reloads the bundle; SIGUSR1 dumps the flight\n"
               "recorder to stderr; clara_client stats|health|dump|reload\n"
               "query a --socket daemon live. --fault / CLARA_FAULT arm the\n"
               "deterministic fault injector (after the initial load).\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string model_dir;
  std::string socket_path;
  std::string transport = "epoll";
  serve::EventLoopOptions loop_opts;
  std::string metrics_path;
  std::string trace_path;
  std::string metrics_jsonl_path;
  std::string fault_spec;
  int64_t metrics_interval_ms = 1000;
  serve::ServeOptions opts;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--model-dir=", 0) == 0) {
      model_dir = a.substr(std::strlen("--model-dir="));
    } else if (a == "--pipe") {
      // default transport
    } else if (a.rfind("--socket=", 0) == 0) {
      socket_path = a.substr(std::strlen("--socket="));
    } else if (a.rfind("--transport=", 0) == 0) {
      transport = a.substr(std::strlen("--transport="));
      if (transport != "epoll" && transport != "sequential") {
        std::fprintf(stderr, "clara_serve: unknown --transport '%s'\n",
                     transport.c_str());
        return Usage();
      }
    } else if (a.rfind("--max-outbound-bytes=", 0) == 0) {
      loop_opts.max_outbound_bytes =
          std::strtoul(a.c_str() + std::strlen("--max-outbound-bytes="), nullptr, 10);
    } else if (a.rfind("--max-conns=", 0) == 0) {
      loop_opts.max_connections =
          std::strtoul(a.c_str() + std::strlen("--max-conns="), nullptr, 10);
    } else if (a.rfind("--profile-packets=", 0) == 0) {
      opts.profile_packets =
          std::strtoul(a.c_str() + std::strlen("--profile-packets="), nullptr, 10);
    } else if (a.rfind("--queue=", 0) == 0) {
      opts.queue_capacity = std::strtoul(a.c_str() + std::strlen("--queue="), nullptr, 10);
    } else if (a.rfind("--batch=", 0) == 0) {
      opts.max_batch = std::strtoul(a.c_str() + std::strlen("--batch="), nullptr, 10);
    } else if (a.rfind("--cache=", 0) == 0) {
      opts.cache_capacity = std::strtoul(a.c_str() + std::strlen("--cache="), nullptr, 10);
    } else if (a.rfind("--infer=", 0) == 0) {
      if (!ParseInferBackend(a.substr(std::strlen("--infer=")), &opts.infer_backend)) {
        std::fprintf(stderr, "clara_serve: unknown --infer backend '%s'\n",
                     a.c_str() + std::strlen("--infer="));
        return Usage();
      }
    } else if (a.rfind("--metrics-json=", 0) == 0) {
      metrics_path = a.substr(std::strlen("--metrics-json="));
    } else if (a.rfind("--trace=", 0) == 0) {
      trace_path = a.substr(std::strlen("--trace="));
    } else if (a.rfind("--slo-p99-us=", 0) == 0) {
      opts.slo_p99_us = std::strtod(a.c_str() + std::strlen("--slo-p99-us="), nullptr);
    } else if (a.rfind("--slo-window-ms=", 0) == 0) {
      opts.slo_window_ms =
          std::strtoll(a.c_str() + std::strlen("--slo-window-ms="), nullptr, 10);
    } else if (a.rfind("--flight=", 0) == 0) {
      opts.flight_capacity = std::strtoul(a.c_str() + std::strlen("--flight="), nullptr, 10);
    } else if (a.rfind("--metrics-jsonl=", 0) == 0) {
      metrics_jsonl_path = a.substr(std::strlen("--metrics-jsonl="));
    } else if (a.rfind("--metrics-interval=", 0) == 0) {
      metrics_interval_ms =
          std::strtoll(a.c_str() + std::strlen("--metrics-interval="), nullptr, 10);
    } else if (a.rfind("--brownout-exit-margin=", 0) == 0) {
      opts.brownout_exit_margin =
          std::strtod(a.c_str() + std::strlen("--brownout-exit-margin="), nullptr);
    } else if (a.rfind("--brownout-exit-hold-ms=", 0) == 0) {
      opts.brownout_exit_hold_ms =
          std::strtoll(a.c_str() + std::strlen("--brownout-exit-hold-ms="), nullptr, 10);
    } else if (a.rfind("--brownout-retry-after-ms=", 0) == 0) {
      opts.brownout_retry_after_ms = static_cast<uint32_t>(
          std::strtoul(a.c_str() + std::strlen("--brownout-retry-after-ms="), nullptr, 10));
    } else if (a.rfind("--fault=", 0) == 0) {
      if (!fault_spec.empty()) {
        fault_spec += ",";
      }
      fault_spec += a.substr(std::strlen("--fault="));
    } else {
      return Usage();
    }
  }
  if (model_dir.empty() || opts.queue_capacity == 0 || opts.max_batch == 0 ||
      opts.profile_packets == 0 || loop_opts.max_outbound_bytes == 0 ||
      loop_opts.max_connections == 0 ||
      opts.slo_window_ms <= 0 || metrics_interval_ms <= 0 ||
      opts.brownout_exit_margin <= 0 || opts.brownout_exit_margin > 1 ||
      opts.brownout_exit_hold_ms < 0) {
    return Usage();
  }

  std::string bundle_path = serve::BundlePath(model_dir);
  TrainedBundle bundle;
  std::string error;
  if (!serve::LoadBundleFile(bundle_path, &bundle, &error)) {
    std::fprintf(stderr, "clara_serve: %s\n", error.c_str());
    return 1;
  }
  obs::SetEnabled(true);
  InstallSignalHandlers();

  obs::TraceSink sink;
  if (!trace_path.empty()) {
    obs::SetGlobalTrace(&sink);
  }
  obs::PeriodicJsonlExporter exporter(metrics_jsonl_path,
                                      std::chrono::milliseconds(metrics_interval_ms));
  if (!metrics_jsonl_path.empty() && !exporter.Start()) {
    std::fprintf(stderr, "clara_serve: cannot open %s\n", metrics_jsonl_path.c_str());
    return 1;
  }

  serve::ServeEngine engine(std::move(bundle), opts);
  engine.SetReloadPath(bundle_path);
  std::fprintf(stderr, "clara_serve: inference backend %s (simd: %s)\n",
               InferBackendName(opts.infer_backend), simd::FeatureString().c_str());

  // Arm fault injection only now, after the initial bundle loaded and the
  // engine exists: a chaos sweep over the binio/artifact sites must exercise
  // the serving and reload paths, not prevent startup.
  if (!fault::ConfigureFromEnv(&error) || !fault::Configure(fault_spec, &error)) {
    std::fprintf(stderr, "clara_serve: bad fault spec: %s\n", error.c_str());
    return Usage();
  }
  if (fault::Armed()) {
    std::fprintf(stderr, "clara_serve: fault injection armed\n");
  }

  // Socket modes claim the endpoint before touching the socket file: the
  // flock'd pidfile makes "unlink a stale socket" safe and a second daemon
  // on the same path fail fast instead of stealing a live sibling's socket.
  util::PidFile pidfile;
  if (!socket_path.empty() && !pidfile.Acquire(socket_path + ".pid", &error)) {
    std::fprintf(stderr,
                 "clara_serve: refusing to start: %s (is another clara_serve "
                 "already serving %s?)\n",
                 error.c_str(), socket_path.c_str());
    return 1;
  }

  engine.Start();
  int rc;
  if (socket_path.empty()) {
    rc = ServeStream(engine, bundle_path, STDIN_FILENO, STDOUT_FILENO);
  } else if (transport == "sequential") {
    rc = ServeSocket(engine, bundle_path, socket_path);
  } else {
    loop_opts.socket_path = socket_path;
    rc = ServeEpoll(engine, bundle_path, loop_opts);
  }
  engine.Stop();

  exporter.Stop();
  if (!trace_path.empty()) {
    obs::SetGlobalTrace(nullptr);
    if (sink.WriteChromeJson(trace_path)) {
      std::fprintf(stderr, "clara_serve: wrote %zu trace event(s) to %s\n", sink.size(),
                   trace_path.c_str());
    } else {
      std::fprintf(stderr, "clara_serve: cannot write %s\n", trace_path.c_str());
      rc = rc == 0 ? 1 : rc;
    }
  }
  if (!metrics_path.empty()) {
    std::FILE* f = std::fopen(metrics_path.c_str(), "w");
    if (f != nullptr) {
      std::string json = obs::MetricsRegistry::Global().ToJson();
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "clara_serve: cannot write %s\n", metrics_path.c_str());
      rc = rc == 0 ? 1 : rc;
    }
  }
  std::fprintf(stderr, "clara_serve: shut down cleanly\n");
  return rc;
}
