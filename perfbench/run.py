#!/usr/bin/env python3
"""Run one benchmark workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload sweep|verify|gap|serve|all \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run it from the repository root.  It builds perfbench/perfbench.exe and
bin/widening_cli.exe with dune, runs the workload once, prints every
metric by name with its unit, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
It exits 1 when a correctness check failed and 2 on a usage or build
error.  Everything a run writes stays under _build/ and .perfbench_tmp/.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["sweep", "verify", "gap", "serve"]
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
CLI = os.path.join("_build", "default", "bin", "widening_cli.exe")
GOLDEN = os.path.join("test", "golden", "fig3.csv")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        fail("run from the repository root: dune-project and lib/ are missing")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./" + EXE, "./" + CLI],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail("build failed")


def source_digest():
    h = hashlib.sha256()
    for top in ("lib", "bin", "perfbench"):
        for d, dirs, files in os.walk(top):
            dirs.sort()
            for f in sorted(files):
                p = os.path.join(d, f)
                h.update(p.encode())
                with open(p, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_revision():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True, timeout=10,
        )
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def run_workload(workload, seed, seconds, trace):
    """One run of the OCaml program; returns its parsed JSON object."""
    tmp = os.path.abspath(os.path.join(".perfbench_tmp", str(os.getpid())))
    os.makedirs(tmp, exist_ok=True)
    cmd = [os.path.abspath(EXE), "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--golden", os.path.abspath(GOLDEN),
           "--cli", os.path.abspath(CLI), "--tmp", tmp]
    if trace:
        cmd.append("--trace")
    # Its own process group, so that a timeout also stops the server
    # children it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True,
                            env=dict(os.environ, TMPDIR=tmp))
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        out = ""
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(".perfbench_tmp")
        except OSError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s run failed with exit code %d" % (workload, proc.returncode), 1)
    return json.loads(lines[-1])


def report(res, fingerprint):
    print("workload %s (trace %s): %d attempted, %d failed" % (
        res["workload"], "on" if res["trace"] else "off", res["attempted"], res["failed"]))
    for name, m in res["metrics"].items():
        print("  %-32s %16.6f %s" % (name, m["value"], m["unit"]))
    for name, m in res["reported"].items():
        print("  %-32s %16.6f %s (reported, not gated)" % (name, m["value"], m["unit"]))
    for key, val in res["info"].items():
        print("  info %s = %s" % (key, json.dumps(val)))
    for p in res["problems"]:
        print("  FAILED CHECK: " + p)
    print("fingerprint " + json.dumps(dict(res["fingerprint"], **fingerprint), sort_keys=True))


def selftest(seconds):
    """Determinism at one seed, and a different seed changes the inputs."""
    failures = []

    def metrics(workload, trace):
        return run_workload(workload, 1, seconds, trace)["metrics"]

    for workload, names, trace in [
        ("sweep", ["alloc_gwords", "decided_share"], False),
        ("gap", ["alloc_gwords", "decided_share"], False),
        ("sweep", ["widen.calls", "evaluate.evaluations"], True),
        ("gap", ["exact.nodes"], True),
    ]:
        a, b = metrics(workload, trace), metrics(workload, trace)
        for n in names:
            same = a[n]["value"] == b[n]["value"]
            print("%s %s: %r vs %r %s" % (workload, n, a[n]["value"], b[n]["value"],
                                          "repeats" if same else "DIFFERS"))
            if not same:
                failures.append("%s %s does not repeat" % (workload, n))

    def program(*args):
        return subprocess.run([os.path.abspath(EXE)] + list(args), stdout=subprocess.PIPE,
                              check=True).stdout

    s = ["--seconds", str(seconds)]
    if program("stream", "--seed", "1", *s) != program("stream", "--seed", "1", *s):
        failures.append("serve request stream is not byte-identical at one seed")
    for w in ["sweep", "gap", "serve"]:
        a = program("inputs", "--workload", w, "--seed", "1", *s)
        b = program("inputs", "--workload", w, "--seed", "2", *s)
        print("%s inputs seed 1 %s seed 2" % (w, "==" if a == b else "!="))
        if a == b:
            failures.append("%s inputs do not change with the seed" % w)
    for f in failures:
        print("SELFTEST FAILED: " + f)
    print("selftest " + ("failed" if failures else "passed"))
    return not failures


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="check determinism at one seed (small inputs) and exit")
    args = ap.parse_args()
    if args.seconds < 1 or (args.workload is None and not args.selftest):
        ap.print_usage(sys.stderr)
        sys.exit(2)
    build()
    if args.selftest:
        sys.exit(0 if selftest(1) else 1)
    fingerprint = {"git_revision": git_revision(), "source_sha256": source_digest()}
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = [run_workload(w, args.seed, args.seconds, args.trace == 1) for w in workloads]
    for res in results:
        report(res, fingerprint)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = {k: {"value": m["value"], "unit": m["unit"]} for k, m in results[0]["metrics"].items()}
    else:
        metrics = {"%s.%s" % (r["workload"], k): {"value": m["value"], "unit": m["unit"]}
                   for r in results for k, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    sys.exit(0 if failed == 0 else 1)


if __name__ == "__main__":
    main()
