"""One benchmark pass in a fresh interpreter.

    python3 worker.py '<json spec>'

The spec names the workload, seed, source and output directories and
whether to trace.  The pass measures set-up (import quasiloc, build the CLI
parser, construct the first ModelParams), then runs the workload's CLI
operations back to back through quasiloc.cli.main, and prints one JSON line
with the timings, the peak RSS, the operations' exit codes and outputs, and
the per-layer metrics when traced.  With "setup_only" it stops after set-up.
The parent sets the BLAS thread variables before this interpreter starts.
"""

import json
import os
import resource
import sys
import time

import workloads

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def environment():
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def resolve(argv, values):
    return [repr(float(values[a[1:-1]])) if a.startswith("{") else a
            for a in argv]


def run_pass(spec):
    t0 = time.perf_counter()
    import quasiloc
    import quasiloc.cli as cli
    from quasiloc.single_particle import ModelParams

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(quasiloc.__file__).startswith(src + os.sep):
        raise RuntimeError(f"quasiloc imported from {quasiloc.__file__}, "
                           f"not from {src}")
    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cli.build_parser()
    ModelParams(L=8, beta=8.0)
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if spec.get("setup_only"):
        return result

    ops, values = [], {}
    first = time.perf_counter()
    for i, op in enumerate(workloads.plan(spec["workload"], spec["seed"])):
        path = os.path.join(spec["outdir"], f"{i}-{op['command']}.out")
        argv = ["-o", path, *resolve(op["argv"], values)]
        if tracer is not None:
            tracer.run_id = i
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
        ops.append({"command": op["command"], "argv": argv, "exit": code,
                    "seconds": seconds, "output": path})
        if code != 0:
            break
        with open(path) as fh:
            if fh.read(1) == "{":
                fh.seek(0)
                results = json.load(fh)["results"]
                if isinstance(results, dict):
                    values.update(results)
    result["wall_s"] = time.perf_counter() - first
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["ops"] = ops
    result["environment"] = environment()
    if tracer is not None:
        from tracer import layer_metrics

        layers = layer_metrics(tracer)
        layers.update({f"cli.{c}.s": 0.0 for c in workloads.commands()})
        for op in ops:
            layers[f"cli.{op['command']}.s"] += op["seconds"]
        layers["cli.output_bytes"] = sum(os.path.getsize(op["output"])
                                         for op in ops if op["exit"] == 0)
        layers["trace.spans"] = len(tracer.label)
        tracer.save(os.path.join(spec["outdir"], "spans.npz"))
        result["layers"] = layers
    return result


if __name__ == "__main__":
    print(json.dumps(run_pass(json.loads(sys.argv[1]))))
