"""Seeded benchmark of the qcliff command line; see bench/README.md.

    python3 bench/run.py --workload algebra --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --smoke

Run from the root of a source checkout.  One client drives
``qcliff.cli.main(argv)`` in this process in a closed loop: the next
request starts when the previous one has finished and its output has been
checked.  With ``--trace 1`` the same requests are then replayed as the
public layer calls each subcommand makes, with a span around each call.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import collections
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

STARTED = time.perf_counter()  # set-up is timed from here to the first request

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
GOLDENS = os.path.join(BENCH_DIR, "goldens.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
# Set-up is timed this many times, spread evenly over the run so that the
# median covers the machine's slow and fast spells.
SETUP_REPEATS = 9
# peak_rss_mb is read after this many requests (or at the end of a shorter
# run), so that it does not depend on how many requests a run completes.
RSS_REQUESTS = 28
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def cap_threads() -> int:
    """Limit BLAS and OpenMP pools to the cores this process may use.

    Must run before numpy is imported; child processes inherit the limit.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        cur = os.environ.get(var, "")
        if not (cur.isdigit() and 1 <= int(cur) <= nproc):
            os.environ[var] = str(nproc)
    return nproc


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=("hadamard", "algebra"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="one request per workload; validate both result schemas")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required unless --smoke is given")
    return args


# -- set-up --------------------------------------------------------------------


def prepare(workload: str, seed: int, workdir: str):
    """Write the inputs of the first set-up cycles; returns the sequence and
    those cycles, first one first."""
    import workloads

    os.makedirs(workdir, exist_ok=True)
    seq = workloads.Sequence(workload, seed)
    cycles = [seq.cycle(c) for c in range(workloads.SETUP_CYCLES[workload])]
    write_inputs(workdir, [item for cycle in cycles for item in cycle])
    return seq, collections.deque(cycles)


def write_inputs(workdir: str, items) -> None:
    import workloads

    for item in {item.key: item for item in items}.values():
        workloads.write_input(workdir, item)


def set_up(workload: str, seed: int, workdir: str):
    """The run's own set-up, in this process: import qcliff, then generate
    and write the inputs of the first cycles.

    Returns the time from the start of this script to the import done, the
    time of ``import qcliff.cli``, the time of the input step, and what
    :func:`prepare` returned.
    """
    start = time.perf_counter()
    import qcliff.cli  # noqa: F401  (the import is what is timed)

    import_s = time.perf_counter() - start
    import workloads  # noqa: F401  (its imports are part of set-up)

    imported = time.perf_counter() - STARTED
    start = time.perf_counter()
    seq, cycles = prepare(workload, seed, workdir)
    return imported, import_s, time.perf_counter() - start, seq, cycles


def time_set_up(workload: str, seed: int, workdir: str) -> float:
    """Time set-up again: the imports in a fresh interpreter, since this
    process has them cached, then the input step here, which rewrites the
    same files.  The interpreter's own start-up is not counted, as it is
    not in :func:`set_up` either."""
    child = (f"import time; t = time.perf_counter(); import sys; "
             f"sys.path[:0] = [{SRC!r}, {BENCH_DIR!r}]; import qcliff.cli, workloads; "
             f"print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", child], cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    start = time.perf_counter()
    prepare(workload, seed, workdir)
    return float(proc.stdout) + time.perf_counter() - start


# -- requests ------------------------------------------------------------------


class Request:
    """What a run keeps of one request; its input is not kept."""

    __slots__ = ("key", "latency", "problems", "output_bytes", "replay_s", "values")

    def __init__(self, key: str):
        self.key = key
        self.latency = 0.0
        self.problems: list[str] = []
        self.output_bytes = 0
        # primary call sequence replayed without and with spans, in seconds
        self.replay_s: dict[str, float] = {}
        self.values: dict[str, float] = {}  # per-layer values of the replay


def execute(item, workdir: str) -> tuple[float, dict[str, bytes], list[str]]:
    """Run one request through ``qcliff.cli.main``; returns its latency, its
    outputs (standard output of each command, then files it wrote) and any
    exit-code or exception problems."""
    import workloads
    from qcliff.cli import main

    argvs = workloads.commands(workdir, item)
    outputs, problems = {}, []
    start = time.perf_counter()
    try:
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                rc = main(argv)
            name = "stdout" if len(argvs) == 1 else f"{argv[0]}.stdout"
            outputs[name] = out.getvalue().encode()
            if rc != 0:
                problems.append(f"{argv[0]} exited {rc}: {err.getvalue().strip()}")
                break
    except Exception:  # noqa: BLE001  (a crashing request is a failed request)
        problems.append(traceback.format_exc(limit=3))
    latency = time.perf_counter() - start
    for name, path in workloads.output_files(workdir, item).items():
        if os.path.exists(path):
            with open(path, "rb") as fh:
                outputs[name] = fh.read()
            os.remove(path)
    return latency, outputs, problems


def check_outputs(item, outputs: dict[str, bytes]) -> list[str]:
    import checks

    try:
        return checks.check(item.kind, item.data, outputs)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"output does not parse as expected: {exc!r}"]


def run_request(item, workdir: str, goldens: dict) -> Request:
    """One timed request, then its independent check and golden digests."""
    import checks

    req = Request(item.key)
    req.latency, outputs, req.problems = execute(item, workdir)
    req.output_bytes = sum(len(v) for v in outputs.values())
    if not req.problems:
        req.problems += check_outputs(item, outputs)
        req.problems += checks.golden_problems(outputs, goldens.get(item.key))
    return req


def replay(spans, req: Request, item, workdir: str, goldens: dict) -> None:
    """Traced replay of a request right after it ran.  Its primary call
    sequence runs twice, once with a recorder that records nothing and once
    with ``spans``, in alternating order; then the replayed sub-steps
    follow.  Each replay must print and write the same bytes as the command
    line did."""
    import checks
    import workloads

    spans.begin_request()
    primary, extra = workloads.REPLAYS[item.kind]
    order = (spans, workloads.NO_SPANS) if spans.request % 2 else (workloads.NO_SPANS, spans)
    try:
        for recorder in order:
            start = time.perf_counter()
            outputs, result = primary(workdir, item, recorder)
            name = "traced" if recorder is spans else "plain"
            req.replay_s[name] = time.perf_counter() - start
            req.problems += [f"replay {p}" for p in
                             checks.golden_problems(outputs, goldens.get(item.key))]
            if recorder is spans:
                state = result
        extra(state, spans)
    except Exception:  # noqa: BLE001  (a crashing replay fails the request)
        req.problems.append(f"replay failed\n{traceback.format_exc(limit=3)}")
        return
    req.values = dict(spans.values)


# -- metrics -------------------------------------------------------------------


def percentile_90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def read_spec() -> dict:
    with open(SPEC, "r", encoding="utf-8") as fh:
        return json.load(fh)


def metric_block(names_units, values: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in names_units}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(requests: list[Request], setup_s: float, rss_mb: float) -> dict:
    latencies = [r.latency for r in requests]
    completed = sum(1 for r in requests if not r.problems)
    return {
        "op_p50_s": statistics.median(latencies),
        "op_p90_s": percentile_90(latencies),
        "ops_per_s": completed / sum(latencies),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
    }


def per_layer(names, per_request: list[dict], extra: dict) -> dict:
    """Median per request over the requests that made the call; a layer the
    workload never calls reads 0."""
    out = {}
    for name in names:
        if name in extra:
            out[name] = extra[name]
            continue
        samples = [values[name] for values in per_request if name in values]
        out[name] = statistics.median(samples) if samples else 0.0
    return out


def validate_result(result: dict, names_units) -> list[str]:
    """Problems with a result object against the schema BENCHMARK.json fixes."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if isinstance(result[key], bool) or not isinstance(result[key], int):
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    metrics = result["metrics"]
    if set(metrics) != {name for name, _ in names_units}:
        problems.append(f"metric names differ: {sorted(set(metrics) ^ {n for n, _ in names_units})}")
        return problems
    for name, unit in names_units:
        m = metrics[name]
        if set(m) != {"value", "unit"} or m["unit"] != unit:
            problems.append(f"{name}: expected keys value, unit with unit {unit}")
        elif isinstance(m["value"], bool) or not isinstance(m["value"], (int, float)) \
                or not math.isfinite(m["value"]):
            problems.append(f"{name}: value {m['value']!r} is not a finite number")
    return problems


def environment(args, nproc: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "commit": commit(),
        "workload": args.workload,
        "seed": args.seed,
        "platform": platform.platform(),
    }


def commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, "r", encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), "r", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# -- one run -------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool,
            max_requests: int | None = None) -> dict:
    """Set up, run the closed loop for ``seconds`` and compute both metric
    sets.  ``setup_s`` is the median of the run's own set-up and of
    ``SETUP_REPEATS - 1`` timings of it between cycles.  When tracing, each
    request is replayed right after it ran, and the replays count towards
    ``seconds``.  A cycle's inputs are dropped once it has run, so the
    memory the bench holds does not grow with the number of requests."""
    rundir = os.path.join(WORK, f"{workload}-seed{seed}-pid{os.getpid()}")
    try:
        imported, import_s, input_s, seq, pending = set_up(workload, seed, rundir)
        import workloads  # after set_up, which times the first import
        setup_times = [imported + input_s]
        with open(GOLDENS, "r", encoding="utf-8") as fh:
            goldens = json.load(fh)
        spans = workloads.Spans() if trace else None
        requests: list[Request] = []
        rss_mb = None
        start = time.perf_counter()
        c = 0
        while True:
            if pending:
                cycle = pending.popleft()
            else:
                cycle = seq.cycle(c)
                write_inputs(rundir, cycle)
            for item in cycle:
                req = run_request(item, rundir, goldens)
                if spans is not None:
                    replay(spans, req, item, rundir, goldens)
                requests.append(req)
                if len(requests) == RSS_REQUESTS:
                    rss_mb = peak_rss_mb()
                if len(requests) == max_requests:
                    break
            c += 1
            wall = time.perf_counter() - start
            if len(setup_times) < SETUP_REPEATS and wall >= len(setup_times) * seconds / SETUP_REPEATS:
                setup_times.append(time_set_up(workload, seed, rundir))
                wall = time.perf_counter() - start
            if len(requests) == max_requests or wall + wall / c / 2 >= seconds:
                break
        run = {
            "requests": requests,
            "measured_s": time.perf_counter() - start,
            "cycles": c,
            "end_to_end": end_to_end(requests, statistics.median(setup_times),
                                     rss_mb or peak_rss_mb()),
            "problems": [f"{r.key}: {p}" for r in requests for p in r.problems],
        }
        if trace:
            replayed = [r for r in requests if len(r.replay_s) == 2]
            run["spans"] = spans.records
            run["per_request"] = [r.values for r in replayed]
            run["layer_extra"] = {
                "cli.import_s": import_s,
                "trace.overhead_ratio": (sum(r.replay_s["traced"] for r in replayed)
                                         / sum(r.replay_s["plain"] for r in replayed))
                                        if replayed else 0.0,
                "serialize.output_bytes": statistics.median(r.output_bytes for r in requests),
            }
        return run
    finally:
        shutil.rmtree(rundir, ignore_errors=True)


def result_object(run: dict, spec: dict, trace: bool) -> dict:
    requests = run["requests"]
    failed = sum(1 for r in requests if r.problems)
    if trace:
        names = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        values = per_layer([n for n, _ in names], run["per_request"], run["layer_extra"])
    else:
        names = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        values = run["end_to_end"]
    return {
        "correct": not run["problems"],
        "attempted": len(requests),
        "failed": failed,
        "metrics": metric_block(names, values),
    }


def write_spans(workload: str, seed: int, records: list[dict]) -> None:
    path = os.path.join(WORK, f"trace-{workload}-seed{seed}.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


def report(args, nproc: int, run: dict, result: dict) -> None:
    """Lines before the result: environment, sample count, every metric."""
    attempted, failed = result["attempted"], result["failed"]
    print(json.dumps({"environment": environment(args, nproc), "ops": attempted,
                      "cycles": run["cycles"], "measured_s": run["measured_s"]}))
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        # for reference only; bench/README.md says why it is not a metric
        print(f"op_p50_s = {run['end_to_end']['op_p50_s']:.6g} s (not a gated metric)")
    print(f"error_rate = {failed / attempted:.6g} ({failed} of {attempted} requests failed)")
    for problem in run["problems"][:10]:
        print(f"problem: {problem}", file=sys.stderr)


def smoke(args, nproc: int) -> int:
    """One request per workload, traced; both result objects must match the
    schema in BENCHMARK.json and every output check must pass."""
    spec = read_spec()
    ok = True
    for w in spec["workloads"]:
        run = measure(w["name"], args.seed, 0.0, trace=True, max_requests=1)
        for trace in (False, True):
            result = result_object(run, spec, trace)
            problems = validate_result(result, [
                (m["name"], m["unit"]) for m in spec["per_layer" if trace else "end_to_end"]])
            problems += run["problems"]
            status = "ok" if not problems else "FAIL"
            ok &= not problems
            print(f"smoke {w['name']} trace={int(trace)}: {status}")
            for p in problems:
                print(f"  {p}")
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "qcliff", "__init__.py")):
        print(f"bench: no qcliff sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    nproc = cap_threads()
    sys.path.insert(0, SRC)
    os.makedirs(WORK, exist_ok=True)
    if args.smoke:
        return smoke(args, nproc)
    trace = bool(args.trace)
    run = measure(args.workload, args.seed, args.seconds, trace)
    result = result_object(run, read_spec(), trace)
    if trace:
        write_spans(args.workload, args.seed, run["spans"])
    report(args, nproc, run, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
