#!/usr/bin/env python3
"""Self-tests of the serving benchmark.

Usage (from the root of a Clara checkout):

    python3 servebench/selftest.py

Builds like run.py, trains one bundle with `clara_cli train`, then runs
`servebench selftest`, which checks that:
  * a one-byte corruption of a response body is caught;
  * the traced replay reproduces ClaraAnalyzer::Analyze for every registry
    element under small and large flows (23 x 2 cases);
  * the training replay's bundle is byte-identical to clara_cli train's;
  * every workload's request schedule is a pure function of the seed;
  * a stalled stub daemon inflates open-loop latency instead of hiding it.
Exits 0 when all pass.
"""
import os
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402


def main():
    try:
        bins = run.build()
    except run.HarnessFault as e:
        run.log(str(e))
        return 1
    workdir = os.path.join(run.BUILD, "selftest-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        train = subprocess.run([bins["cli"], "train", "--model-dir=model"], cwd=workdir,
                               stdout=subprocess.DEVNULL)
        if train.returncode != 0:
            run.log("clara_cli train failed")
            return 1
        return subprocess.run([bins["harness"], "selftest", "--bundle", "model/clara_bundle.bin",
                               "--socket-dir", "."], cwd=workdir, timeout=600).returncode
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
