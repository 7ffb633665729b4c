#!/usr/bin/env python3
"""Clara serving benchmark: one run of one traffic mix against a live clara_serve.

Usage (from the root of a Clara checkout):

    python3 servebench/run.py --workload miss_header --seed 1 --seconds 30 --trace 0

Builds the Clara libraries, clara_cli, clara_serve and the harness into
.bench_build/servebench, then:

  1. set-up, three times: `clara_cli train` into a fresh model directory, start
     `clara_serve` on it with default flags, wait for it to answer `health`
     (setup_s is the median of the three);
  2. the harness probes the daemon's cache for cross-talk and its answers to
     every element as inline source, prewarms the cache (hit_replay), runs
     the timed phase from one single-threaded generator over four
     connections, and checks every answer byte for byte against
     ClaraAnalyzer::Analyze on the same bundle;
  3. with --trace 1, after the daemon stops: the traced in-process replay of
     the workload's distinct requests and of `clara_cli train`.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics (end-to-end metrics with --trace 0, per-layer
metrics with --trace 1). The line before it stamps the machine, the daemon
flags and the source, and lists per-element failures.
"""
import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
# Build outputs go under $CARGO_TARGET_DIR when set (relative to the
# checkout), else .bench_build; both are git-ignored.
BUILD = os.path.join(REPO, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "servebench")
WORKLOADS = ("miss_header", "miss_payload", "hit_replay")
SETUP_REPS = 3
# clara_serve with default flags: epoll transport, f64 inference, a
# 128-entry cache, 2000 profile packets; no --slo-p99-us, no --fault.
DAEMON_FLAGS = []

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "predict_wmape": "ratio",
    "cores_mae": "cores",
}
PER_LAYER = {
    "serve.queue_us.p50": "us",
    "serve.queue_us.p99": "us",
    "serve.transport_us.p50": "us",
    "serve.resolve_us.p50": "us",
    "serve.encode_us.p50": "us",
    "serve.infer_us.p50": "us",
    "serve.analyze_us.p50": "us",
    "serve.batch_size.mean": "count",
    "serve.cache_hit_ratio": "ratio",
    "serve.dispatcher_busy_share": "ratio",
    "serve.cpu_ms_per_answer": "ms",
    "serve.refused": "count",
    "serve.wrong": "count",
    "serve.cache_crosstalk": "count",
    "gen.lag_ms_p99": "ms",
    "elements.make_us": "us",
    "lang.parse_us": "us",
    "lang.check_us": "us",
    "serve.cache_key_us": "us",
    "serve.proto_us": "us",
    "lang.lower_us": "us",
    "workload.trace_us": "us",
    "lang.interp_us": "us",
    "lang.interp_ns_per_packet": "ns",
    "ml.predict_us": "us",
    "ml.blocks_per_request": "count",
    "core.algo_id_us": "us",
    "nic.backend_us": "us",
    "nic.demand_us": "us",
    "core.scaleout_us": "us",
    "core.placement_us": "us",
    "solver.ilp_nodes": "count",
    "core.coalescing_us": "us",
    "nic.perf_model_us": "us",
    "replay.other_share": "ratio",
    "trace.overhead_share": "ratio",
    "train.measure_corpus_s": "s",
    "train.predictor_s": "s",
    "train.algo_id_s": "s",
    "train.scaleout_s": "s",
    "train.colocation_s": "s",
    "serve.artifact_load_ms": "ms",
}


class HarnessFault(Exception):
    pass


def log(msg):
    print("servebench: " + msg, file=sys.stderr, flush=True)


def build():
    """Builds the three binaries; returns their paths."""
    for need in ("src/CMakeLists.txt", "tools/clara_serve.cc", "tools/clara_cli.cc"):
        if not os.path.exists(os.path.join(REPO, need)):
            raise HarnessFault("Clara sources not found (%s is missing); run from a "
                               "checkout of the repository" % need)
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.log"), "w") as logf:
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", BUILD, "-j", str(max(1, os.cpu_count() or 1)),
                      "--target", "servebench", "clara_cli", "clara_serve_bin"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT).returncode != 0:
                raise HarnessFault("build failed; see " + logf.name)
    return {
        "cli": os.path.join(BUILD, "clara_tools", "clara_cli"),
        "serve": os.path.join(BUILD, "clara_tools", "clara_serve"),
        "harness": os.path.join(BUILD, "servebench"),
    }


def health_ok(sock_path):
    """True when the daemon answers a health control frame."""
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(5)
            s.connect(sock_path)
            s.sendall(struct.pack("<IHB", 3, 0x5143, 1))
            header = s.recv(4, socket.MSG_WAITALL)
            if len(header) != 4:
                return False
            payload = s.recv(struct.unpack("<I", header)[0], socket.MSG_WAITALL)
            return payload[:2] == struct.pack("<H", 0x5043)
    except OSError:
        return False


def cpu_split():
    """(daemon CPUs, generator CPU): the generator gets the last CPU to itself."""
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[:-1], cpus[-1]) if len(cpus) >= 2 else (cpus, None)


class Daemon:
    """One clara_serve process on ./s.sock of the run directory."""

    def __init__(self, binary, model_dir, log_path):
        self.log = open(log_path, "ab")
        cpus = cpu_split()[0]
        self.proc = subprocess.Popen([binary, "--model-dir=" + model_dir, "--socket=s.sock"]
                                     + DAEMON_FLAGS, stdout=subprocess.DEVNULL, stderr=self.log,
                                     preexec_fn=lambda: os.sched_setaffinity(0, cpus))

    def wait_healthy(self, timeout=60):
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise HarnessFault("clara_serve exited with %d during start-up" % self.proc.returncode)
            if health_ok("s.sock"):
                return
            time.sleep(0.002)
        raise HarnessFault("clara_serve did not answer health within %d s" % timeout)

    def alive(self):
        return self.proc.poll() is None

    def stop(self):
        """SIGTERM, then wait; returns the exit code (kills after 20 s)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return self.proc.returncode


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def setup(bins, reps):
    """Trains and starts the daemon `reps` times; returns (times, daemon, bundles)."""
    times, bundles = [], []
    for i in range(reps):
        model_dir = "model%d" % i
        t0 = time.perf_counter()
        train = subprocess.run([bins["cli"], "train", "--model-dir=" + model_dir],
                               stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        if train.returncode != 0:
            raise HarnessFault("clara_cli train failed: " + train.stderr.decode(errors="replace"))
        daemon = Daemon(bins["serve"], model_dir, "daemon.log")
        try:
            daemon.wait_healthy()
        except HarnessFault:
            daemon.stop()
            raise
        times.append(time.perf_counter() - t0)
        bundles.append(os.path.join(model_dir, "clara_bundle.bin"))
        if i + 1 < reps:
            daemon.stop()
    return times, daemon, bundles


def run_harness(bins, args, timeout):
    """Runs one harness subcommand; returns its JSON result."""
    proc = subprocess.run([bins["harness"]] + args, stdout=subprocess.PIPE, timeout=timeout)
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        raise HarnessFault("servebench %s exited with %d and no result" % (args[0], proc.returncode))
    result = json.loads(lines[-1])
    if proc.returncode != 0:
        raise HarnessFault("servebench %s exited with %d" % (args[0], proc.returncode))
    return result


def cpu_stamp():
    model, flags = "unknown", set()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and model == "unknown":
                    model = value.strip()
                elif key.strip() == "flags" and not flags:
                    flags = set(value.split())
    except OSError:
        pass
    return model, [f for f in ("avx2", "fma") if f in flags]


def source_stamp():
    """The git commit when there is one, and a digest of the sources built."""
    commit = None
    try:
        out = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.decode().strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "servebench"):
        path = os.path.join(REPO, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
            if not f.endswith(".pyc"))
        for f in files:
            digest.update(os.path.relpath(f, REPO).encode() + b"\0" + read_bytes(f))
    return commit, digest.hexdigest()


def run(args, bins):
    times, daemon, bundles = setup(bins, SETUP_REPS if not args.trace else 1)
    try:
        bundle_equal = all(read_bytes(b) == read_bytes(bundles[0]) for b in bundles)
        gen_cpu = cpu_split()[1]
        drive = run_harness(bins, ["drive", "--workload", args.workload, "--seed", str(args.seed),
                                   "--seconds", str(args.seconds), "--socket", "s.sock",
                                   "--bundle", bundles[-1], "--pid", str(daemon.proc.pid),
                                   "--gen-cpu", str(-1 if gen_cpu is None else gen_cpu)],
                            timeout=150)
        if not daemon.alive():
            raise HarnessFault("clara_serve died during the run")
    finally:
        code = daemon.stop()
    if code != 0:
        raise HarnessFault("clara_serve exited with %d at shutdown" % code)

    values = dict(drive)
    values["setup_s"] = statistics.median(times)
    if args.trace:
        values.update(run_harness(bins, ["replay", "--workload", args.workload,
                                         "--seed", str(args.seed), "--bundle", bundles[-1]],
                                  timeout=150))
        values.update(run_harness(bins, ["train-replay", "--cli-bundle", bundles[-1]],
                                  timeout=150))
    metrics = PER_LAYER if args.trace else END_TO_END
    correct = drive["correct"] and bundle_equal
    model, flags = cpu_stamp()
    commit, digest = source_stamp()
    print(json.dumps({
        "stamp": {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "cpu_model": model, "cpu_flags": flags,
            "nproc": len(os.sched_getaffinity(0)),
            "clara_threads": os.environ.get("CLARA_THREADS"),
            "daemon_flags": DAEMON_FLAGS, "daemon_cpus": cpu_split()[0],
            "generator_cpu": cpu_split()[1], "git_commit": commit, "source_sha256": digest,
        },
        "details": {
            "setup_s_reps": times, "bundles_identical": bundle_equal,
            "latency_tail_pct": drive["latency_tail_pct"],
            "latency_samples": drive["latency_samples"],
            "latency_p99_whole_run_ms": drive["latency_p99_whole_run_ms"], "blocks": drive["blocks"],
            "phase_s": drive["phase_s"], "distinct_answered": drive["distinct_answered"],
            "crosstalk_elements": drive["crosstalk_elements"],
            "failures": drive["failures"], "unexpected_failures": drive["unexpected_failures"],
        },
    }))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(drive["attempted"]),
        "failed": int(drive["failed"]),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in metrics.items()},
    }))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    try:
        bins = build()
        rundir = os.path.join(BUILD, "run-%d" % os.getpid())
        os.makedirs(rundir)
        cwd = os.getcwd()
        os.chdir(rundir)
        try:
            run(args, bins)
        finally:
            os.chdir(cwd)
            shutil.rmtree(rundir, ignore_errors=True)
    except (HarnessFault, subprocess.TimeoutExpired, json.JSONDecodeError) as e:
        log("run failed: %s" % e)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
