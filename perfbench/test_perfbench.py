"""Self-test of the benchmark on miniature sizes.

Run with ``python3 -m pytest perfbench -q`` from the root of a checkout.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import run
from tracer import LAYERS, Tracer

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# threshold at dim 2 flips between q = 0.7 and 0.8 (threshold 2^-1/2).
MINI = run.Workload(
    lambda seed: [
        run._with_outputs(
            "threshold_dim4",
            ["threshold", "--dim", "2", "--max-level", "4", "--p", "2",
             "--grid", "0.60:0.80:0.10", "--route", "rstar"],
        )
    ],
    run.check_threshold,
)


def _mini_reference(tmp_path: Path) -> Path:
    refdir = tmp_path / "reference"
    run.make_reference({"mini": MINI}, refdir)
    return refdir


def test_benchmark_json_names_what_the_runner_reports():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    layer_names = [f"{name}.{stat}" for name, stats in LAYERS.items() for stat in stats]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == layer_names + list(run.CLI_UNITS)


def test_every_metric_printed_by_name_with_unit(tmp_path, capsys):
    refdir = _mini_reference(tmp_path)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        result = run.measure(MINI, seed=1, seconds=1, trace=trace, refdir=refdir)
        capsys.readouterr()
        run.print_result(result)
        lines = capsys.readouterr().out.strip().splitlines()
        last = json.loads(lines[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert {k: v["unit"] for k, v in last["metrics"].items()} == expected
        for name, unit in expected.items():
            assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}") for line in lines)


def test_wrong_reference_counts_as_failed_invocation(tmp_path):
    refdir = _mini_reference(tmp_path)
    ref_csv = refdir / "threshold_dim4.csv"
    ref_csv.write_text(ref_csv.read_text().replace("CONVERGENT", "DIVERGENT", 1))
    result = run.measure(MINI, seed=1, seconds=1, trace=False, refdir=refdir)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == run.MIN_PASSES


def test_tracer_reaches_graded_mul_through_element_mul():
    sys.path.insert(0, str(run.ROOT / "src"))
    import numpy as np
    from qfocklab.qfock import FockParams
    from qfocklab.wick import Element

    params = FockParams(q=0.5, dim=2, max_level=4)
    x = Element(params, {1: np.ones(2)})
    tracer = Tracer().install()
    try:
        x.mul(x)
    finally:
        tracer.uninstall()
    stats = tracer.summary()
    assert stats["wick.graded_mul"]["calls"] == 1
    assert stats["qfock.split_tensor"]["calls"] > 0


def test_self_time_never_exceeds_total(tmp_path):
    refdir = _mini_reference(tmp_path)
    outdir = tmp_path / "traced"
    p = run.run_pass(MINI, 0, outdir, refdir, True, deadline=time.monotonic() + 120)
    assert not p.failed
    assert sum(s["calls"] for s in p.layers.values()) > 0
    for name, s in p.layers.items():
        assert -1e-9 <= s["self_s"] <= s["total_s"] + 1e-9, name


def test_refuses_to_run_without_sources(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    got = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "ao_ou", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert got.returncode != 0
    assert got.stdout == ""
