"""quasiloc benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload ed_l12 --seed 0 --seconds 25 --trace 0

Run from the repository root.  Each pass of the workload runs in a fresh
interpreter (worker.py) against the sources in src/.  Passes repeat while
another one, and the set-up probes still owed, are expected to end within
--seconds.  The first pass always runs whole, so a workload whose one pass
is longer than --seconds overruns it.  Every operation's output goes
through the gates in gates.py.

--trace 0 prints the end-to-end metrics of BENCHMARK.json: medians over the
passes of wall_s and peak_rss_mb, and of setup_s over the passes plus
set-up-only interpreters, SETUP_SAMPLES in all.  --trace 1 alternates untraced and traced passes
and prints the per-layer metrics of the traced ones, with the tracing
overhead as trace.overhead_s.  The last line of stdout is the result object.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads
from worker import THREAD_VARS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
SETUP_SAMPLES = 10
DEADLINE_S = 170.0      # a run must end within 180 s


def git_commit():
    """HEAD of the checkout, or None when it is not a git repository."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    threads = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        env[var] = threads
    return env


def spawn(spec, env, deadline):
    """Run one worker; its parsed result, or None when it failed."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return None
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), json.dumps(spec)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print(f"worker timed out: {spec}", file=sys.stderr)
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def gate(seed, op):
    """Violations of one successful operation's output."""
    import gates

    with open(op["output"]) as fh:
        config, results = gates.read_output(fh.read())
    if op["command"] == "decay":
        return gates.check_decay(config, results)
    if op["command"] == "correlate":
        return gates.check_correlate(
            config, gates.correlation_slices(config, results))
    if op["command"] == "scales":
        family = gates.scale_family(config)
        samples = gates.propagator_samples(
            family, workloads.oracle_rng(seed), workloads.ORACLE_SAMPLES)
        return gates.check_scales(
            config, results, gates.with_program_values(family, samples))
    if op["command"] == "scan":
        return gates.check_scan(config, results)
    raise KeyError(f"no gates for {op['command']!r}")


def check_ops(seed, ops):
    """Violations of each operation, one list per operation."""
    found = []
    for op in ops:
        if op["exit"] != 0:
            found.append([f"exit code {op['exit']}"])
            continue
        try:
            found.append(gate(seed, op))
        except Exception as exc:
            # malformed output, or the program raising inside an oracle
            # sample, fails the operation instead of the run
            found.append([f"{type(exc).__name__}: {exc}"])
    return found


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    started = time.monotonic()
    deadline = started + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "quasiloc", "__init__.py")):
        print(f"no quasiloc sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    sys.path.insert(0, SRC)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(WORK, tag)
    shutil.rmtree(workdir, ignore_errors=True)
    env = child_env()
    base = {"workload": args.workload, "seed": args.seed, "src": SRC}

    # each step is one pass, or an (untraced, traced) pair when tracing
    steps, durations, crashed = [], [], 0
    while True:
        begun = time.monotonic()
        step = []
        for traced in ((False, True) if args.trace else (False,)):
            outdir = os.path.join(workdir, f"pass{len(steps)}-{int(traced)}")
            os.makedirs(outdir)
            step.append(spawn(dict(base, outdir=outdir, trace=traced),
                              env, deadline))
        if None in step:
            crashed = step.count(None)
            break
        steps.append(step)
        durations.append(time.monotonic() - begun)
        # leave time for the set-up probes that fill up SETUP_SAMPLES
        probes = 0 if args.trace else max(SETUP_SAMPLES - len(steps) - 1, 0)
        if time.monotonic() - started + statistics.median(durations) \
                + probes * step[0]["setup_s"] > args.seconds:
            break
    if not steps:
        print("no pass completed", file=sys.stderr)
        return 1

    passes = [p for step in steps for p in step]
    setups = [p["setup_s"] for p in passes]
    while not args.trace and len(setups) < SETUP_SAMPLES:
        probe = spawn(dict(base, setup_only=True, trace=False), env, deadline)
        if probe is None:
            break
        setups.append(probe["setup_s"])

    # a pass that crashed, and operations it never reached, count as failed
    per_pass = len(workloads.plan(args.workload, args.seed))
    attempted = per_pass * (len(passes) + crashed)
    failed = per_pass * crashed
    violations = []
    for p in passes:
        found = check_ops(args.seed, p["ops"])
        failed += per_pass - len(found) + sum(1 for f in found if f)
        violations += [f"{op['command']}: {v}"
                       for op, f in zip(p["ops"], found) for v in f]

    if args.trace:
        untraced = [s[0] for s in steps]
        traced = [s[1] for s in steps]
        wall = statistics.median(p["wall_s"] for p in traced)
        layers = {"trace.wall_s": wall,
                  "trace.overhead_s":
                      wall - statistics.median(p["wall_s"] for p in untraced)}
        for name in traced[0]["layers"]:
            layers[name] = statistics.median(p["layers"][name]
                                             for p in traced)
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        values = {"wall_s": statistics.median(p["wall_s"] for p in passes),
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"]
                                                   for p in passes),
                  "setup_s": statistics.median(setups)}
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in bench["end_to_end"]}

    record = {"workload": args.workload, "seed": args.seed,
              "theta": workloads.theta_for(args.seed), "trace": args.trace,
              "passes": len(passes), "setup_samples": len(setups),
              "wall_s_per_pass": [p["wall_s"] for p in passes],
              "commands": [op["argv"][2:] for op in passes[0]["ops"]],
              "violations": violations, "git_commit": git_commit(),
              "environment": passes[0]["environment"], "metrics": metrics}
    with open(os.path.join(workdir, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    for v in violations:
        print(f"gate failed: {v}")
    print("record: " + json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
