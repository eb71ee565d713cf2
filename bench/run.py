"""Closed-loop benchmark of the ``game`` command line.

    python3 bench/run.py --workload {repeat-qow,bracket} --seed N \\
        --seconds S --trace {0,1}

One client in one process: each operation is an in-process call of
``rankonegames.cli.main`` on game files generated from ``--seed``, and the
next operation starts when the previous one has returned.  Every output is
checked (see ``workloads.py``).  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of five
set-ups, four of them in fresh processes), ``wall_s`` (median time of the
workload's fixed batch over the passes that fit in ``--seconds``, at least
two) and ``peak_rss_mb``.  ``--trace 1``
runs one untraced and one traced pass of the batch, requires their outputs
to be byte-identical, and reports the per-layer metrics of ``tracing.py``.
Records, and the spans of a traced run, are written under ``bench/out/``.

The package is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with code 2 and prints no result.
"""

import os

# pin BLAS before numpy is imported anywhere in this process or its children
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import time  # noqa: E402

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_CHILDREN = 4
MIN_PASSES = 2
CHILD_TIMEOUT_S = 120

class BenchError(RuntimeError):
    pass


def load_spec() -> dict:
    """BENCHMARK.json names the workloads and every metric with its unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def import_package():
    """Import rankonegames from this checkout's sources, never from elsewhere."""
    init = SRC / "rankonegames" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no package sources at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import rankonegames
    if Path(rankonegames.__file__).resolve() != init.resolve():
        raise BenchError(f"rankonegames imported from {rankonegames.__file__}, not {init}")
    return rankonegames


# -- operations and passes ----------------------------------------------------------

@dataclass
class Pass:
    wall: float
    outputs: list[str] = field(default_factory=list)
    op_seconds: list[float] = field(default_factory=list)
    failures: dict[int, str] = field(default_factory=dict)  # operation index -> reason
    ctx: dict = field(default_factory=dict)


def run_op(cli, op, ctx) -> tuple[str, str | None]:
    """Run one command; return its stdout and a failure message or None."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(op.argv)
    except Exception:  # the loop must go on; the failure is counted and reported
        return out.getvalue(), "raised:\n" + traceback.format_exc()
    text = out.getvalue()
    if rc != 0:
        return text, f"exit code {rc}: {err.getvalue().strip()}"
    try:
        obj = json.loads(text)
    except ValueError as exc:
        return text, f"unparsable output ({exc})"
    try:
        return text, op.check(obj, ctx)
    except (KeyError, TypeError) as exc:
        return text, f"output lacks an expected field ({exc!r})"


def run_pass(cli, ops, clock=time.perf_counter, tracer=None) -> Pass:
    result = Pass(wall=0.0)
    t0 = clock()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        t_op = clock()
        text, failure = run_op(cli, op, result.ctx)
        result.op_seconds.append(clock() - t_op)
        result.outputs.append(text)
        if failure is not None:
            result.failures[i] = f"{op.name}: {failure}"
    result.wall = clock() - t0
    return result


def compare_outputs(ops, reference: Pass, other: Pass, label: str) -> None:
    """Fail each operation of ``other`` whose stdout is not byte-identical."""
    for i, (op, a, b) in enumerate(zip(ops, reference.outputs, other.outputs)):
        if a != b:
            other.failures.setdefault(
                i, f"{op.name}: stdout of the {label} pass differs from the first untraced pass")


# -- set-up -------------------------------------------------------------------------

def set_up(workload: str, seed: int, work: Path):
    """Import, write the seeded inputs, and run the warm-up; returns (cli, ops)."""
    import_package()
    from rankonegames import cli
    from workloads import WORKLOADS, warmup_op

    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    ops = WORKLOADS[workload](work, seed)
    warm = warmup_op(work)
    _, failure = run_op(cli, warm, {})
    if failure is not None:
        raise BenchError(f"warm-up operation failed: {failure}")
    return cli, ops


def child_setup_seconds(workload: str, seed: int, index: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed),
           "--setup-only", str(index)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"set-up child exited {proc.returncode}: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


# -- environment record -------------------------------------------------------------

def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    openblas = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": openblas,
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


# -- the two kinds of run -----------------------------------------------------------

def untraced_run(cli, ops, workload, seed, seconds, setup_main):
    setup = [setup_main] + [child_setup_seconds(workload, seed, i + 1)
                            for i in range(SETUP_CHILDREN)]
    passes = []
    start = time.perf_counter()
    # another pass only if it is expected to end inside the window, but at least two
    while len(passes) < MIN_PASSES or (time.perf_counter() - start
                                       + statistics.median(p.wall for p in passes) <= seconds):
        passes.append(run_pass(cli, ops))
    for p in passes[1:]:
        compare_outputs(ops, passes[0], p, "repeated")
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(p.wall for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"setup_samples_s": setup, "pass_walls_s": [p.wall for p in passes],
              "op_seconds": [p.op_seconds for p in passes]}
    return passes, [], metrics, detail


def traced_run(cli, ops, workload, seed):
    from tracing import Tracer

    plain = run_pass(cli, ops)
    tracer = Tracer()
    with tracer.installed():
        traced = run_pass(cli, ops, clock=tracer.now, tracer=tracer)
    compare_outputs(ops, plain, traced, "traced")
    problems = []
    metrics = tracer.layer_metrics(traced.wall)
    metrics["values.bracket_width_sum"] = sum(traced.ctx.get("widths", []), 0.0)
    metrics["trace.wall_s"] = traced.wall
    metrics["trace.overhead_s"] = traced.wall - plain.wall
    selfs = tracer.self_times(traced.wall)
    gap = sum(selfs.values()) - traced.wall
    if abs(gap) > 1e-6 * max(1.0, traced.wall):
        problems.append(f"trace: layer self times miss the traced wall time by {gap!r} s")
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.json"
    spans_path.write_text(json.dumps({
        "ops": [{"id": i, "name": op.name, "argv": op.argv} for i, op in enumerate(ops)],
        "wrapped": tracer.wrapped, "unwrapped": tracer.unwrapped,
        "spans": tracer.spans_json()}) + "\n", encoding="utf-8")
    detail = {"untraced_wall_s": plain.wall, "self_times_s": selfs,
              "missing": sorted(tracer.missing), "spans_file": str(spans_path.relative_to(ROOT))}
    return [plain, traced], problems, metrics, detail


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a fresh-process set-up whose time the parent takes as one sample
    parser.add_argument("--setup-only", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    sys.path.insert(0, str(BENCH))
    tag = f"{args.workload}-seed{args.seed}"
    work = OUT / "work" / (tag if args.setup_only is None else f"{tag}-setup{args.setup_only}")
    try:
        cli, ops = set_up(args.workload, args.seed, work)
        setup_main = time.perf_counter() - T_START
        if args.setup_only is not None:
            shutil.rmtree(work)
            print(repr(setup_main))
            return 0
        if args.trace:
            passes, problems, metrics, detail = traced_run(cli, ops, args.workload, args.seed)
        else:
            passes, problems, metrics, detail = untraced_run(
                cli, ops, args.workload, args.seed, args.seconds, setup_main)
        env = environment(args.seed)
    except (BenchError, ImportError, OSError, subprocess.SubprocessError) as exc:
        sys.stderr.write(f"bench: {exc}\n")
        return 2
    finally:
        if args.setup_only is None and work.exists():
            shutil.rmtree(work)

    attempted = len(ops) * len(passes)
    failures = [f for p in passes for f in p.failures.values()]
    failed = len(failures)
    for f in failures + problems:
        sys.stderr.write(f"FAILED {f}\n")
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    unmeasured = sorted(set(units) - set(metrics))
    if unmeasured:
        sys.stderr.write(f"bench: metrics not measured: {unmeasured}\n")
        return 2
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace, "env": env,
        "error_rate": failed / attempted, "failures": failures + problems, "detail": detail,
        "ops": [{"name": op.name, "argv": op.argv,
                 "stdout_sha256": hashlib.sha256(text.encode()).hexdigest()}
                for op, text in zip(ops, passes[0].outputs)],
        **result,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{tag}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print("env " + json.dumps(env))
    for name, unit in units.items():
        print(f"{name} {metrics[name]!r} {unit}")
    print(f"error_rate {failed / attempted!r} ({failed} of {attempted} operations)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
