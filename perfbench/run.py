"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload chain_sweep --seed 1 --seconds 30 --trace 0

The program is imported from ``src/`` next to this directory.  One
client drives it in a closed loop: the next request is sent when the
previous one returns, and every call runs with ``jobs=1``.

The seed fixes one request list of :data:`PASS_BLOCKS` blocks, so two
runs (or two commits) are compared on the same requests.  After
:data:`SETUP_ROUNDS` set-up rounds the timed phase replays that list in
:func:`passes` passes, as many as take about ``--seconds`` on a 2-core
x86 VM at the commit that defined the benchmark.  Every pass starts
from an empty memo cache, as a command-line run does; the compile
caches stay as set-up and the previous pass left them.  A request's
latency is its fastest pass, as ``timeit`` reports the best of its
repeats: on a shared host a CPU's speed swings by up to half for
seconds to a minute at a time, and the minimum over passes spread
across the run is what stays put.  Passes take the process's CPUs in
turn, pinned to one each: the CPUs of a shared host slow down at
different times, so a request's fastest pass comes from whichever was
fast.  The pass count is fixed, because the minimum of fewer passes
reads slower; only a machine slow enough to overrun ``--seconds``
stops early.  Outputs of the last pass are checked after the
timed phase.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
pass untraced and one traced and prints the per-layer metrics;
its spans go to ``.perfbench/trace-<workload>-<seed>.jsonl``.  The
last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Request blocks in the list one pass replays: at least 100 requests,
#: so that 10 latencies lie beyond p90.
PASS_BLOCKS = {"chain_sweep": 10, "tree_sweep": 1, "sim_replay": 10}

#: Passes per second of timed phase: a pass takes about 1.8 s
#: (chain_sweep), 5 s (tree_sweep) and 3 s (sim_replay) on the reference VM.
PASSES_PER_SECOND = {"chain_sweep": 0.55, "tree_sweep": 0.2, "sim_replay": 0.33}

#: Passes a run makes however slow the machine is.
MIN_PASSES = 3
#: Set-up is repeated this many times per run: the program is imported
#: once here and ``SETUP_ROUNDS - 1`` times in fresh interpreters, and
#: compiled ``SETUP_ROUNDS`` times.  ``setup_s`` is the median import
#: plus the median compile.
SETUP_ROUNDS = 3

#: What set-up imports: the workloads' entry points.
_PROGRAM_MODULES = ("repro.experiments.simsupport", "repro.multihop", "repro.runtime")

#: Run by a fresh interpreter: ``<src> <module>...``; prints the import seconds.
_IMPORT_PROBE = """\
import importlib, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
for name in sys.argv[2:]:
    importlib.import_module(name)
print(time.perf_counter() - start)
"""

#: Pinned so runs do not depend on how many cores BLAS grabs.
_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Program switches that would reroute the workloads; cleared.
_PROGRAM_ENV = ("REPRO_TEMPLATES", "REPRO_VECTOR_SIM", "REPRO_JOBS")


def passes(workload: str, seconds: float) -> int:
    """Passes for a timed phase of about ``seconds`` on the reference VM."""
    return max(MIN_PASSES, round(seconds * PASSES_PER_SECOND[workload]))


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _commit() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(args: argparse.Namespace) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _drive(requests: list[dict], tracer=None):
    """Run ``requests`` in order; returns ``(prepared, results, latencies, failed)``.

    Building a request's task objects is client work, done before its
    clock starts.  A request that raises is recorded in ``failed``.
    """
    from perfbench.workloads import prepare

    prepared, results, latencies, failed = [], [], [], set()
    for index, request in enumerate(requests):
        item = prepare(request)
        call = item.call if tracer is None else (lambda i=index, c=item.call: tracer.request(i, c))
        start = time.perf_counter()
        try:
            output = call()
        except Exception as error:  # a failed request is counted, not fatal
            print(f"perfbench request {index} raised {error!r}", file=sys.stderr)
            failed.add(index)
            output = None
        latencies.append(time.perf_counter() - start)
        prepared.append(item)
        results.append(output)
    return prepared, results, latencies, failed


def _import_program(requests: list[dict]) -> tuple[float, list, list]:
    """Import the program; returns the import time, its compile caches
    and one prepared request per structure the workload compiles."""
    start = time.perf_counter()
    for name in _PROGRAM_MODULES:
        importlib.import_module(name)
    import_s = time.perf_counter() - start
    from perfbench import workloads

    workloads.runtime.configure(1)
    return import_s, workloads.lru_caches(), workloads.representatives(requests)


def _fresh_import_s() -> float:
    """Import the program in a new interpreter; returns its import seconds."""
    probe = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src"), *_PROGRAM_MODULES],
        capture_output=True,
        check=True,
        text=True,
        timeout=120,
    )
    return float(probe.stdout.split()[-1])


def _set_up(representatives: list, caches: list) -> float:
    """One set-up round: cold-compile every structure; returns its seconds."""
    from perfbench import workloads

    start = time.perf_counter()
    workloads.warm_up(representatives, caches)
    return time.perf_counter() - start


def _untraced(args, requests: list[dict]) -> tuple[dict, set, dict]:
    imports = [_fresh_import_s() for _ in range(SETUP_ROUNDS - 1)]
    import_s, caches, representatives = _import_program(requests)
    imports.append(import_s)
    from perfbench import stats, workloads

    rounds = [_set_up(representatives, caches) for _ in range(SETUP_ROUNDS)]
    timed, failed = [], set()
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    try:
        for index in range(passes(args.workload, args.seconds)):
            if len(timed) >= MIN_PASSES and time.perf_counter() - start > args.seconds:
                break
            os.sched_setaffinity(0, {cpus[index % len(cpus)]})
            workloads.new_pass()
            prepared, results, latencies, raised = _drive(requests)
            timed.append(latencies)
            failed |= raised
    finally:
        os.sched_setaffinity(0, cpus)
    best = [min(times) for times in zip(*timed)]
    peak_rss = _peak_rss_mb()
    start = time.perf_counter()
    failed |= workloads.check(prepared, results, failed, args.seed)
    points = sum(item.points for i, item in enumerate(prepared) if i not in failed)
    busy = sum(best)
    metrics = {
        "setup_s": (statistics.median(imports) + statistics.median(rounds), "s"),
        "points_per_s": (points / busy, "1/s"),
        "request_p50_ms": (1e3 * stats.percentile(best, 0.5), "ms"),
        "request_p90_ms": (1e3 * stats.percentile(best, 0.9), "ms"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    info = {
        "import_s": imports,
        "setup_rounds_s": rounds,
        "structures": len(representatives),
        "passes": len(timed),
        "pass_s": [sum(times) for times in timed],
        "points": points,
        "request_s": busy,
        "p50_samples_beyond": stats.samples_beyond(len(latencies), 0.5),
        "p90_samples_beyond": stats.samples_beyond(len(latencies), 0.9),
        "check_s": time.perf_counter() - start,
    }
    return metrics, failed, info


def _traced(args, requests: list[dict]) -> tuple[dict, set, dict]:
    from perfbench import tracing, workloads

    _, caches, representatives = _import_program(requests)
    _set_up(representatives, caches)
    _, _, untraced, _ = _drive(requests)
    # Set up again, traced, so the traced pass starts from the same
    # state as the untraced one and set-up compiles are counted.
    setup_tracer = tracing.Tracer()
    patches = tracing.instrument(setup_tracer)
    try:
        workloads.warm_up(representatives, caches)
    finally:
        patches.close()
    tracer = tracing.Tracer()
    patches = tracing.instrument(tracer)
    try:
        prepared, results, traced, failed = _drive(requests, tracer)
    finally:
        patches.close()
    layer = tracing.layer_metrics(
        tracer.spans,
        tracer.counters,
        workloads.runtime.global_cache().stats(),
        workloads.runtime.failure_report().solver_fallbacks,
        sum(untraced),
        sum(traced),
    )
    # Set-up compiles count too: they are what set-up time is made of.
    layer["core.templates.compiles"] += setup_tracer.counters.get("core.templates.compiles", 0)
    layer["core.templates.compile_s"] += sum(
        end - start for name, start, end, *_ in setup_tracer.spans if name == "core.templates.compile"
    )
    failed |= workloads.check(prepared, results, failed, args.seed)
    out = ROOT / ".perfbench"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"trace-{args.workload}-{args.seed}.jsonl")
    metrics = {name: (value, _unit(name)) for name, value in layer.items()}
    return metrics, failed, {"untraced_s": sum(untraced), "traced_s": sum(traced)}


def _unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("us_per_point"):
        return "us"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    for name in _THREAD_ENV:
        os.environ[name] = "1"
    for name in _PROGRAM_ENV:
        os.environ.pop(name, None)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import requests as generator

    if args.workload not in generator.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    requests = generator.generate(args.workload, args.seed, PASS_BLOCKS[args.workload])
    if args.trace:
        metrics, failed, info = _traced(args, requests)
    else:
        metrics, failed, info = _untraced(args, requests)
    info.update(
        digest=generator.digest(requests),
        requests=len(requests),
        failed_frac=len(failed) / len(requests),
    )
    print("perfbench env " + json.dumps(_environment(args), sort_keys=True))
    print("perfbench run " + json.dumps(info, sort_keys=True))
    result = {
        "correct": not failed,
        "attempted": len(requests),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
