"""qfocklab benchmark: end-to-end CLI timings and a per-layer trace.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --make-reference

A *pass* runs a workload's CLI invocations once, strictly one at a
time, each in a fresh ``launch.py`` process, so the library's caches
start cold as they do for users.  A run repeats passes for about
``--seconds`` (at least ``MIN_PASSES``) and reports medians over them.
Every invocation's output is checked; an invocation fails when its exit
code is not 0 or its output fails the workload's check, and the result
line counts failures against attempts.

``--trace 0`` reports the end-to-end metrics, measured untraced:

- ``wall_s``: spawn of a pass's first process to exit of its last;
- ``setup_s``: spawn until ``qfocklab.cli`` is imported and ready to
  parse arguments, summed over a pass's processes (stamped by the
  launcher in the same child);
- ``peak_rss_mb``: largest ``ru_maxrss`` of a pass's processes, taken
  from ``os.wait4`` per child (``RUSAGE_CHILDREN`` is a running maximum
  over every child ever reaped, so one large pass would poison the rest).

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``tracer.LAYERS``, plus ``cli.cpu_s`` (user + sys
of the untraced processes), ``cli.trace_overhead_s`` (traced minus
untraced wall) and ``cli.error_rate``.  Traced outputs must equal the
untraced ones byte for byte, or the traced invocation fails.

The benchmark sets no BLAS or thread environment variables; it prints
the inherited ones with the library versions before the result line.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LAUNCHER = HERE / "launch.py"
REFERENCE = HERE / "reference"

MIN_PASSES = 3
# Children still running this long after a run starts are killed (and
# counted as failed), so a hung invocation cannot hang the run.
HARD_LIMIT_S = 170.0
RTOL = 1e-9
THREAD_ENV_PREFIXES = ("OMP_", "OPENBLAS_", "MKL_", "BLIS_", "GOTO", "VECLIB_", "NUMEXPR_")

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
STAT_UNITS = {
    "calls": "count",
    "self_s": "s",
    "total_s": "s",
    "new_bytes": "bytes",
    "reuse_ratio": "ratio",
}
CLI_UNITS = {"cli.cpu_s": "s", "cli.trace_overhead_s": "s", "cli.error_rate": "ratio"}


# ---------------------------------------------------------------------------
# correctness checks
# ---------------------------------------------------------------------------


def _close(got: str, ref: str) -> bool:
    try:
        a, b = float(got), float(ref)
    except ValueError:
        return got == ref
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= RTOL * max(abs(a), abs(b))


def csv_close(got: Path, ref: Path) -> bool:
    """Same header and shape; numeric cells within RTOL, others exact."""
    with open(got, newline="") as fa, open(ref, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if len(rows_a) != len(rows_b) or rows_a[:1] != rows_b[:1]:
        return False
    return all(
        len(ra) == len(rb) and all(_close(x, y) for x, y in zip(ra, rb))
        for ra, rb in zip(rows_a[1:], rows_b[1:])
    )


def _load(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _reference_check(json_ok: Callable[[dict, dict], bool]):
    """Each label's CSV within RTOL of its reference, and
    ``json_ok(output JSON, reference JSON)``."""

    def check(out: Path, ref: Path, labels: list[str]) -> set[str]:
        return {
            label
            for label in labels
            if not (
                csv_close(out / f"{label}.csv", ref / f"{label}.csv")
                and json_ok(_load(out / f"{label}.json"), _load(ref / f"{label}.json"))
            )
        }

    return check


# At max-level 6 the head/tail trend test does not pass (tail 1.36 is
# above half the head, 2.18), so the verdict is compared with the
# reference's instead of required.
check_ao = _reference_check(lambda got, ref: got["trend_pass"] == ref["trend_pass"])
check_threshold = _reference_check(lambda got, ref: got["flip_count"] == 1)
_check_route = _reference_check(lambda got, ref: got["verdict"] == "CONVERGENT")


def check_decay(out: Path, ref: Path, labels: list[str]) -> set[str]:
    """Each route matches its reference and every other route (the
    paper's cross-validation), with a CONVERGENT verdict."""
    failed = _check_route(out, ref, labels)
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            if not csv_close(out / f"{a}.csv", out / f"{b}.csv"):
                failed |= {a, b}
    return failed


def check_verify(out: Path, ref: Path, labels: list[str]) -> set[str]:
    failed = set()
    for label in labels:
        report = _load(out / f"{label}.json")
        checks = report["checks"]
        if not (report["passed"] and checks and all(c["residual"] < c["tolerance"] for c in checks)):
            failed.add(label)
    return failed


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Workload:
    # seed -> [(label, CLI arguments)]; outputs are named after the label.
    invocations: Callable[[int], list[tuple[str, list[str]]]]
    # (output dir, reference dir, labels) -> labels whose output is wrong
    check: Callable[[Path, Path, list[str]], set[str]]


def _with_outputs(label: str, args: list[str]) -> tuple[str, list[str]]:
    return label, [*args, "--out", f"{label}.csv", "--json-out", f"{label}.json"]


DECAY = ["decay", "--q", "0.5", "--dim", "2", "--max-level", "8", "--word-a", "1", "--word-b", "1"]

# Why each workload exists is recorded in BENCHMARK.json.  Only verify_m6
# uses the seed; the other three run fixed basis words and are
# deterministic.  verify's work depends on its seed (d_squared samples
# random levels), so each pass gets its own seed drawn from the run's
# seed: the run's median then averages over seeds instead of resting on
# one.
WORKLOADS = {
    "ao_ou": Workload(
        lambda seed: [
            _with_outputs(
                "ao_ou",
                ["ao-decay", "--model", "ou", "--q", "0.3", "--dim", "2", "--max-level", "6",
                 "--word-x", "1", "--word-y", "1"],
            )
        ],
        check_ao,
    ),
    "threshold_dim4": Workload(
        lambda seed: [
            _with_outputs(
                "threshold_dim4",
                ["threshold", "--dim", "4", "--max-level", "5", "--p", "2",
                 "--grid", "0.40:0.60:0.05", "--route", "rstar"],
            )
        ],
        check_threshold,
    ),
    "decay_routes": Workload(
        lambda seed: [
            _with_outputs(f"decay_{route}", [*DECAY, "--route", route])
            for route in ("direct", "partition", "rstar")
        ],
        check_decay,
    ),
    "verify_m6": Workload(
        lambda seed: [
            ("verify_m6", ["verify", "--q", "0.5", "--dim", "2", "--max-level", "6",
                           "--seed", str(seed), "--out", "verify_m6.json"])
        ],
        check_verify,
    ),
}


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    outdir: Path
    labels: list[str]
    failed: set[str]
    wall: float
    setup: float
    peak_rss_mb: float
    cpu: float
    layers: dict


def run_pass(
    workload: Workload, seed: int, outdir: Path, refdir: Path, trace: bool, deadline: float
) -> Pass:
    outdir.mkdir(parents=True)
    invocations = workload.invocations(seed)
    finished = []
    start = time.monotonic()
    for label, args in invocations:
        report = outdir / f"{label}.report"
        with open(outdir / f"{label}.stdout", "wb") as so, open(outdir / f"{label}.stderr", "wb") as se:
            spawned = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(LAUNCHER), str(report), "1" if trace else "0", *args],
                cwd=outdir, stdout=so, stderr=se,
            )
            timer = threading.Timer(max(deadline - spawned, 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                timer.cancel()
        finished.append((label, spawned, proc.returncode, usage, report))
    wall = time.monotonic() - start

    labels = [label for label, *_ in finished]
    failed = {label for label, _, code, _, _ in finished if code != 0}
    setup, layers = 0.0, {}
    for label, spawned, _, _, report in finished:
        try:
            got = _load(report)
        except (OSError, ValueError):
            failed.add(label)
            continue
        setup += got["ready"] - spawned
        for name, stats in got.get("layers", {}).items():
            acc = layers.setdefault(name, dict.fromkeys(stats, 0))
            for stat, value in stats.items():
                acc[stat] += value
    ran = [label for label in labels if label not in failed]
    try:
        failed |= workload.check(outdir, refdir, ran)
    except (OSError, ValueError, KeyError, TypeError):
        # a missing or malformed output file
        failed |= set(ran)
    return Pass(
        outdir, labels, failed, wall, setup,
        max(u.ru_maxrss for *_, u, _ in finished) / 1024.0,
        sum(u.ru_utime + u.ru_stime for *_, u, _ in finished),
        layers,
    )


def _outputs(outdir: Path, label: str = "*") -> list[Path]:
    """The CSV and JSON files an invocation wrote."""
    return sorted(p for p in outdir.glob(f"{label}.*") if p.suffix in (".csv", ".json"))


def _same_outputs(a: Path, b: Path, label: str) -> bool:
    names = [p.name for p in _outputs(a, label)]
    return bool(names) and all(
        (b / n).is_file() and (a / n).read_bytes() == (b / n).read_bytes() for n in names
    )


def measure(
    workload: Workload, seed: int, seconds: float, trace: bool, refdir: Path = REFERENCE
) -> dict:
    """Run passes for about ``seconds`` and return the result object."""
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    plain: list[Pass] = []
    traced: list[Pass] = []
    try:
        start = time.monotonic()
        deadline = start + HARD_LIMIT_S
        seeds = random.Random(seed)
        while True:
            pass_seed = seeds.randrange(2**31)
            p = run_pass(workload, pass_seed, work / f"plain{len(plain)}", refdir, False, deadline)
            plain.append(p)
            round_s = p.wall
            if trace:
                t = run_pass(workload, pass_seed, work / f"traced{len(traced)}", refdir, True, deadline)
                t.failed |= {l for l in t.labels if not _same_outputs(p.outdir, t.outdir, l)}
                traced.append(t)
                round_s += t.wall
            elapsed = time.monotonic() - start
            enough = trace or len(plain) >= MIN_PASSES
            if (enough and elapsed + round_s > seconds) or time.monotonic() > deadline:
                break
        identical = _byte_identity(plain[-1].outdir, refdir)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = plain + traced
    attempted = sum(len(p.labels) for p in passes)
    failed = sum(len(p.failed) for p in passes)
    if trace:
        values = _layer_metrics(traced)
        values["cli.cpu_s"] = statistics.median(p.cpu for p in plain)
        values["cli.trace_overhead_s"] = statistics.median(t.wall for t in traced) - statistics.median(p.wall for p in plain)
        values["cli.error_rate"] = failed / attempted
    else:
        values = {
            "wall_s": statistics.median(p.wall for p in plain),
            "setup_s": statistics.median(p.setup for p in plain),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in plain),
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": metric_unit(name)} for name, v in values.items()},
        "pass_walls": {"untraced": [p.wall for p in plain], "traced": [t.wall for t in traced]},
        "failures": sorted({l for p in passes for l in p.failed}),
        "byte_identical": identical,
    }


def _layer_metrics(traced: list[Pass]) -> dict[str, float]:
    values = {}
    for name, stats in LAYERS.items():
        for stat in stats:
            def one(p: Pass) -> float:
                got = p.layers.get(name, {})
                if stat == "reuse_ratio":
                    calls = got.get("calls", 0)
                    return 1.0 - got.get("distinct_keys", 0) / calls if calls else 0.0
                return got.get(stat, 0)

            values[f"{name}.{stat}"] = statistics.median(one(p) for p in traced)
    return values


def metric_unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name in CLI_UNITS:
        return CLI_UNITS[name]
    return STAT_UNITS[name.rsplit(".", 1)[1]]


def _byte_identity(outdir: Path, refdir: Path) -> dict[str, bool]:
    """Whether each CSV equals its reference byte for byte (recorded,
    not gated)."""
    return {
        p.name: (refdir / p.name).is_file() and p.read_bytes() == (refdir / p.name).read_bytes()
        for p in sorted(outdir.glob("*.csv"))
    }


def environment() -> dict:
    """Thread settings and library versions the children inherit."""
    import numpy
    import scipy

    def blas(mod) -> str:
        info = mod.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
        return f"{info.get('name')} {info.get('version')}"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith(THREAD_ENV_PREFIXES)},
    }


def make_reference(workloads: dict[str, Workload], refdir: Path) -> None:
    """Write each workload's CSV and JSON outputs to ``refdir``.  Each
    pass is checked against its own outputs, so the checks that need no
    reference (exit codes, verdicts, route agreement) still apply."""
    refdir.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        for name, workload in workloads.items():
            outdir = work / name
            p = run_pass(workload, 0, outdir, outdir, False, time.monotonic() + HARD_LIMIT_S)
            if p.failed:
                raise SystemExit(f"{name}: {sorted(p.failed)} failed")
            for path in _outputs(outdir):
                shutil.copyfile(path, refdir / path.name)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_result(result: dict) -> None:
    print("env " + json.dumps(environment(), sort_keys=True))
    for kind, walls in result["pass_walls"].items():
        if walls:
            print(f"{kind} pass walls (s): " + " ".join(f"{w:.3f}" for w in walls))
    print(f"byte-identical CSVs: {result['byte_identical']}")
    for label in result["failures"]:
        print(f"FAILED: {label}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    keys = ("correct", "attempted", "failed", "metrics")
    print(json.dumps({k: result[k] for k in keys}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--make-reference", action="store_true",
                        help="regenerate reference/ from the current library")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qfocklab" / "cli.py").is_file():
        print(f"no qfocklab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.make_reference:
        make_reference({k: w for k, w in WORKLOADS.items() if k != "verify_m6"}, REFERENCE)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    print_result(measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
