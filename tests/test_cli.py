"""Command-line harness: exit codes, report determinism, schemas."""

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qfocklab
from qfocklab.cli import (
    COMMANDS,
    GRID_POINT_CAP,
    ExperimentConfig,
    build_parser,
    main,
    parse_grid,
    parse_word,
    resolve_config,
)
from qfocklab.errors import ConfigError


def run_cli(args, tmp_path=None):
    return subprocess.run(
        [sys.executable, "-m", "qfocklab.cli", *args],
        capture_output=True,
        text=True,
    )


def test_parse_grid():
    assert parse_grid("0.3:0.5:0.1") == [0.3, 0.4, 0.5]
    assert parse_grid("0.30:0.70:0.05")[0] == 0.3
    assert len(parse_grid("0.30:0.70:0.05")) == 9
    with pytest.raises(ConfigError):
        parse_grid("1:0:0.1")
    with pytest.raises(ConfigError):
        parse_grid("nope")
    for spec in ("nan:1:0.1", "0.1:inf:0.1", "-inf:0.5:0.1", "0.1:0.5:nan"):
        with pytest.raises(ConfigError):
            parse_grid(spec)


def test_parse_grid_is_bounded_before_any_point_is_made(monkeypatch):
    from qfocklab import cli

    assert len(parse_grid(f"0:{GRID_POINT_CAP - 1}:1")) == GRID_POINT_CAP
    with pytest.raises(ConfigError, match="more than"):
        parse_grid(f"0:{GRID_POINT_CAP}:1")

    def no_points(*args):
        raise AssertionError("grid points were made")

    # the points come from range(); an oversized grid must fail before it
    monkeypatch.setattr(cli, "range", no_points, raising=False)
    for spec in ("0:0.8:1e-6", "0:1:1e-320"):  # 800001 points; an infinite count
        with pytest.raises(ConfigError, match="more than"):
            parse_grid(spec)


def test_parse_word():
    assert parse_word("1,2,1") == [1, 2, 1]
    with pytest.raises(ConfigError):
        parse_word("1,x")


def test_config_validation():
    cfg = ExperimentConfig(command="decay", q=0.95)
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg = ExperimentConfig(command="decay", word_a=[3], dim=2)
    with pytest.raises(ConfigError):
        cfg.validate()
    ExperimentConfig(command="decay").validate()


def test_bad_q_exits_2(capsys):
    assert main(["verify", "--q", "0.999"]) == 2


def test_decay_report(tmp_path, capsys):
    out = tmp_path / "decay.csv"
    jout = tmp_path / "decay.json"
    code = main(
        [
            "decay",
            "--q",
            "0.5",
            "--dim",
            "2",
            "--max-level",
            "8",
            "--word-a",
            "1",
            "--word-b",
            "1",
            "--out",
            str(out),
            "--json-out",
            str(jout),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "m,level_norm,sp_bound,partial_sum,ratio"
    assert len(lines) == 1 + 7  # levels 0..6 are lossless at this depth
    payload = json.loads(jout.read_text())
    assert payload["schema_version"] == "1"
    assert payload["config"]["q"] == 0.5
    assert payload["verdict"] == "CONVERGENT"
    import math

    assert payload["fitted_log_slope"] == pytest.approx(math.log(0.5), abs=1e-9)


def test_decay_deterministic_bytes(tmp_path):
    args = [
        "decay",
        "--q",
        "0.4",
        "--dim",
        "2",
        "--max-level",
        "6",
        "--seed",
        "7",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_threshold_flip(tmp_path):
    out = tmp_path / "th.csv"
    jout = tmp_path / "th.json"
    code = main(
        [
            "threshold",
            "--dim",
            "4",
            "--max-level",
            "6",
            "--p",
            "2",
            "--grid",
            "0.45:0.55:0.10",
            "--out",
            str(out),
            "--json-out",
            str(jout),
        ]
    )
    assert code == 0
    payload = json.loads(jout.read_text())
    assert payload["flip_count"] == 1
    assert payload["predicted_threshold"] == pytest.approx(0.5)
    rows = out.read_text().splitlines()[1:]
    assert rows[0].endswith("CONVERGENT")
    assert rows[-1].endswith("DIVERGENT")


def test_torus_command(tmp_path):
    out = tmp_path / "torus.csv"
    jout = tmp_path / "torus.json"
    code = main(
        [
            "torus",
            "--semigroup",
            "poisson",
            "-l",
            "1",
            "-m",
            "1",
            "--window",
            "8",
            "--out",
            str(out),
            "--json-out",
            str(jout),
        ]
    )
    assert code == 0
    payload = json.loads(jout.read_text())
    assert payload["nonzero_count"] == 1
    assert payload["support"] == [-1]
    assert payload["rank_bound"] == 3
    lines = out.read_text().splitlines()
    assert lines[0] == "k,coefficient"


def test_heat_torus_window_clipping(tmp_path):
    out = tmp_path / "heat.csv"
    code = main(
        ["torus", "--semigroup", "heat", "-l", "2", "-m", "3", "--window", "8", "--out", str(out)]
    )
    assert code == 0
    rows = out.read_text().splitlines()[1:]
    ks = [int(r.split(",")[0]) for r in rows]
    # only inputs whose shifted output stays inside the window
    assert min(ks) == -8 and max(ks) == 8 - 5
    assert all(r.split(",")[1] == "-6" for r in rows)


def test_ao_decay_torus(tmp_path):
    jout = tmp_path / "ao.json"
    code = main(
        [
            "ao-decay",
            "--model",
            "torus",
            "-l",
            "1",
            "-m",
            "1",
            "--window",
            "16",
            "--json-out",
            str(jout),
        ]
    )
    assert code == 0
    payload = json.loads(jout.read_text())
    assert payload["trend_pass"] is True


@pytest.mark.parametrize("window", [1, 4, 5, 7])
def test_ao_decay_torus_small_window_is_config_error(window):
    res = run_cli(["ao-decay", "--model", "torus", "-l", "1", "-m", "0", "--window", str(window)])
    assert res.returncode == 2
    assert "Traceback" not in res.stderr
    assert "window >= 8" in res.stderr


def test_ao_decay_torus_minimum_window_runs():
    res = run_cli(["ao-decay", "--model", "torus", "-l", "1", "-m", "0", "--window", "8"])
    assert res.returncode == 0, res.stderr


def test_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"q": 0.4, "dim": 2, "max_level": 6}))
    out = tmp_path / "d.csv"
    jout = tmp_path / "d.json"
    code = main(
        ["decay", "--config", str(cfg_file), "--q", "0.3", "--out", str(out), "--json-out", str(jout)]
    )
    assert code == 0
    payload = json.loads(jout.read_text())
    assert payload["config"]["q"] == 0.3  # flag wins
    assert payload["config"]["max_level"] == 6  # file survives


def test_unknown_config_key(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"qq": 0.4}))
    assert main(["decay", "--config", str(cfg_file)]) == 2


# config-file text (or none), extra flags, and what the message must say
BAD_CONFIG_INPUTS = {
    "missing-config": (None, ["--config", "{tmp}/absent.json"], "cannot read config"),
    "unreadable-config": (None, ["--config", "{tmp}"], "cannot read config"),
    "invalid-json": ("{bad", [], "cannot read config"),
    "json-array": ("[1, 2]", [], "must be a JSON object"),
    "mistyped-field": ('{"q": "abc"}', [], "'q' must be float"),
    "bad-string-word": ('{"word_a": "1,x"}', [], "comma-separated indices"),
    "command-key": ('{"command": "verify"}', [], "unknown config keys: ['command']"),
    "out-in-missing-dir": (None, ["--out", "{tmp}/absent/d.csv"], "does not exist"),
    "json-out-in-missing-dir": (None, ["--json-out", "{tmp}/absent/d.json"], "does not exist"),
    "nan-exponent": (None, ["--p", "nan"], "p must be >= 1, got nan"),
    # JSON booleans are not numbers, and a word index is a whole number
    "boolean-dim": ('{"dim": true}', [], "'dim' must be int, got True"),
    "boolean-seed": ('{"seed": true}', [], "'seed' must be int, got True"),
    "boolean-word-index": ('{"word_a": [true]}', [], "'word_a' must be list[int], got [True]"),
    "fractional-word-index": ('{"word_a": [1.5]}', [], "'word_a' must be list[int], got [1.5]"),
    # no power dim^max_level is formed, and no word is built above the budget
    "huge-max-level": (None, ["--dim", "2", "--max-level", str(10**20)], "2^100000000000000000000"),
    "huge-config-max-level": ('{"max_level": 1e20}', [], "2^100000000000000000000"),
    "word-over-the-budget": (
        None,
        ["--dim", "1000000000", "--max-level", "0"],
        "level 1 with dim 1000000000 exceeds budget",
    ),
    "level-over-the-einsum-alphabet": (None, ["--dim", "1", "--max-level", "52"], "level cap 51"),
}


@pytest.mark.parametrize("case", BAD_CONFIG_INPUTS)
def test_bad_config_inputs_exit_2_before_any_work(case, tmp_path, monkeypatch, capsys):
    from qfocklab import cli

    def solve(*args, **kwargs):
        raise AssertionError("a word or a gradient map was built")

    monkeypatch.setattr(cli, "gradient_map", solve)
    monkeypatch.setattr(cli, "wick", solve)
    text, extra, says = BAD_CONFIG_INPUTS[case]
    # the default max_level, so that a config file may set its own
    args = ["decay"] + [a.format(tmp=tmp_path) for a in extra]
    if text is not None:
        (tmp_path / "cfg.json").write_text(text)
        args += ["--config", str(tmp_path / "cfg.json")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err
    assert says in err, err


def test_ao_decay_word_over_the_budget_fails_before_any_allocation(monkeypatch, capsys):
    # dim^0 = 1 passes the level budget, but a level-1 word would take 16 GB;
    # BAD_CONFIG_INPUTS holds the decay case
    from qfocklab import ao
    from qfocklab import wick as wick_mod

    def build(*args, **kwargs):
        raise AssertionError("a word or a model was built")

    monkeypatch.setattr(wick_mod, "basis_tensor", build)
    monkeypatch.setattr(ao, "build_ou_model", build)
    assert main(["ao-decay", "--model", "ou", "--dim", "1000000000", "--max-level", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "exceeds budget 65536" in err, err


def test_config_file_word_in_flag_form(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"word_a": "2,1", "word_b": [2.0, 1], "dim": 2.0}))
    args = build_parser().parse_args(["decay", "--config", str(cfg_file)])
    cfg = resolve_config(args)
    assert cfg.word_a == [2, 1] and cfg.dim == 2 and isinstance(cfg.dim, int)
    assert cfg.word_b == [2, 1] and all(isinstance(i, int) for i in cfg.word_b)


def test_verify_subprocess_smoke():
    proc = run_cli(["verify", "--max-level", "4"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.count("[PASS]") == 13


@pytest.mark.parametrize("seed", range(5))
def test_verify_passes_across_seeds(seed, capsys):
    assert main(["verify", "--max-level", "4", "--seed", str(seed)]) == 0
    assert capsys.readouterr().out.count("[PASS]") == 13


def test_subcommands_never_import_scipy(tmp_path):
    # scipy costs about 0.3 s to import; the pencils are solved in numpy,
    # so no subcommand may load it.
    runs = [
        ["decay", "--q", "0.5", "--max-level", "5", "--word-a", "1", "--word-b", "1"],
        ["threshold", "--dim", "2", "--max-level", "5", "--grid", "0.4:0.6:0.2"],
        ["ao-decay", "--model", "ou", "--q", "0.3", "--max-level", "4"],
        ["verify", "--max-level", "3"],
    ]
    script = (
        "import sys\n"
        "from qfocklab.cli import main\n"
        f"codes = [main(args) for args in {runs!r}]\n"
        "print(codes, 'scipy' in sys.modules)\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(qfocklab.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0] False"


@pytest.mark.parametrize(
    "runs, absent",
    [
        (
            [
                ["decay", "--q", "0.5", "--max-level", "5", "--word-a", "1", "--word-b", "1"],
                ["threshold", "--dim", "2", "--max-level", "5", "--grid", "0.4:0.6:0.2"],
            ],
            [
                "qfocklab.ao",
                "qfocklab.cohomology",
                "qfocklab.torus",
                "qfocklab.checks",
                "fractions",
                "numpy.random",
            ],
        ),
        (
            [["ao-decay", "--model", "ou", "--q", "0.3", "--max-level", "4"]],
            ["qfocklab.cohomology", "qfocklab.torus", "qfocklab.checks", "numpy.random"],
        ),
        # the sampled checks draw from Python's random module
        ([["verify", "--max-level", "3"]], ["numpy.random"]),
    ],
    ids=["decay-threshold", "ao-decay-ou", "verify"],
)
def test_subcommands_import_only_the_modules_they_run(runs, absent, tmp_path):
    # Each process compiles every module it imports when no bytecode is
    # cached; a subcommand loads only the modules its run calls.
    script = (
        "import sys\n"
        "from qfocklab.cli import main\n"
        f"codes = [main(args) for args in {runs!r}]\n"
        f"print(codes, [name for name in {absent!r} if name in sys.modules])\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(qfocklab.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=tmp_path, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"{[0] * len(runs)} []"


@pytest.mark.parametrize("max_level", [0, 1, 2])
def test_verify_below_minimum_level_is_config_error(max_level, capsys):
    assert main(["verify", "--max-level", str(max_level)]) == 2
    assert "max_level >= 3" in capsys.readouterr().err


def test_verify_minimum_level_runs():
    assert main(["verify", "--max-level", "3"]) == 0


def test_verify_refuses_a_dim_whose_sampled_levels_pass_the_budget(tmp_path, monkeypatch, capsys):
    # d_squared forms level 8 at every max_level, and 5^8 > 65536 >= 4^8
    from qfocklab import checks

    def run(*args, **kwargs):
        raise AssertionError("a check ran")

    jout = tmp_path / "v.json"
    monkeypatch.setattr(checks, "run_checks", run)
    assert main(["verify", "--dim", "5", "--max-level", "3", "--out", str(jout)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err
    assert "level 8 with dim 5 exceeds budget 65536" in err, err
    assert not jout.exists()
    monkeypatch.undo()
    assert main(["verify", "--dim", "4", "--max-level", "3", "--out", str(jout)]) == 0
    assert json.loads(jout.read_text())["passed"]


def test_negative_time_is_config_error(capsys):
    assert main(["decay", "--time", "-1", "--max-level", "4"]) == 2
    assert "time must be >= 0" in capsys.readouterr().err
    for value in ("nan", "inf"):
        assert main(["decay", "--time", value, "--max-level", "4"]) == 2
        assert "time must be >= 0 and finite" in capsys.readouterr().err


def test_threshold_takes_a_negative_grid_as_a_separate_argument(tmp_path):
    # argparse reads a separate "-0.4:0.4:0.4" as an option unless it is
    # joined to its flag
    outs = [tmp_path / "split.csv", tmp_path / "joined.csv"]
    base = ["threshold", "--dim", "2", "--max-level", "4"]
    assert main(base + ["--grid", "-0.4:0.4:0.4", "--out", str(outs[0])]) == 0
    assert main(base + ["--grid=-0.4:0.4:0.4", "--out", str(outs[1])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert outs[0].read_text().splitlines()[1].startswith("-0.4,")


@pytest.mark.parametrize("spec", ["nan:1:0.1", "0.1:inf:0.1"])
def test_threshold_non_finite_grid_is_config_error(spec, capsys):
    assert main(["threshold", "--max-level", "4", "--grid", spec]) == 2
    assert "finite" in capsys.readouterr().err


def test_threshold_grid_beyond_the_cap_fails_before_any_point(monkeypatch, capsys):
    from qfocklab import cli

    def solve(*args, **kwargs):
        raise AssertionError("a grid point was solved")

    monkeypatch.setattr(cli, "gradient_map", solve)
    assert main(["threshold", "--max-level", "4", "--grid", "0.5:0.9:0.1"]) == 2
    assert "grid point 0.9 outside" in capsys.readouterr().err


def test_verify_negative_seed_is_config_error(capsys):
    assert main(["verify", "--max-level", "3", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert "seed must be >= 0" in captured.err
    assert "[PASS]" not in captured.out and "[FAIL]" not in captured.out
    assert main(["verify", "--max-level", "3", "--seed", "0"]) == 0


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-0.5"])
def test_verify_bad_tolerance_is_config_error(value, capsys):
    assert main(["verify", "--max-level", "3", "--tol", value]) == 2
    captured = capsys.readouterr()
    assert "tol must be > 0 and finite" in captured.err
    assert "[PASS]" not in captured.out and "[FAIL]" not in captured.out


def test_verify_corrupted_tolerance(tmp_path):
    jout = tmp_path / "verify.json"
    code = main(["verify", "--max-level", "4", "--tol", "1e-30", "--out", str(jout)])
    assert code == 1
    payload = json.loads(jout.read_text())
    assert payload["passed"] is False
    assert payload["failed_checks"], "failing checks must be named"


def test_decay_without_a_finite_ratio_is_truncation_loss(tmp_path, capsys):
    # at max-level 2 only source level 0 is lossless: one row, no ratio
    out = tmp_path / "decay.csv"
    args = ["decay", "--q", "0.79", "--dim", "2", "--out", str(out)]
    assert main(args + ["--max-level", "2"]) == 2
    assert "TRUNCATION_LOSS" in capsys.readouterr().err
    assert not out.exists()
    jout = tmp_path / "decay.json"
    assert main(args + ["--max-level", "3", "--json-out", str(jout)]) == 0
    assert json.loads(jout.read_text())["verdict"] == "DIVERGENT"


def test_threshold_without_a_finite_ratio_is_truncation_loss(tmp_path, capsys):
    out = tmp_path / "th.csv"
    code = main(
        ["threshold", "--dim", "2", "--max-level", "2", "--grid", "0.6:0.8:0.1", "--out", str(out)]
    )
    assert code == 2
    assert "TRUNCATION_LOSS" in capsys.readouterr().err
    assert not out.exists()


def test_ao_decay_refused_table_leaves_no_file(tmp_path, capsys):
    out = tmp_path / "f.csv"
    assert main(["ao-decay", "--model", "ou", "--max-level", "1", "--out", str(out)]) == 2
    assert "TRUNCATION_LOSS" in capsys.readouterr().err
    assert not out.exists()


def test_verify_records_a_raising_check_and_runs_the_rest(tmp_path, monkeypatch):
    from qfocklab import checks as checks_mod
    from qfocklab.errors import TruncationLoss

    def broken(cfg, params):
        raise TruncationLoss("boom")

    checks = list(checks_mod.VERIFY_CHECKS)
    checks[1] = (checks[1][0], broken)
    monkeypatch.setattr(checks_mod, "VERIFY_CHECKS", checks)
    jout = tmp_path / "verify.json"
    assert main(["verify", "--max-level", "3", "--out", str(jout)]) == 1
    payload = json.loads(jout.read_text())
    assert [c["name"] for c in payload["checks"]] == [name for name, _ in checks]
    errored = payload["checks"][1]
    assert errored["error"] == "TRUNCATION_LOSS: boom"
    assert errored["passed"] is False
    assert errored["residual"] is None
    assert payload["failed_checks"] == [checks[1][0]]
    others = payload["checks"][:1] + payload["checks"][2:]
    assert all(c["passed"] and "error" not in c for c in others)


def test_threshold_sweep_keeps_a_bounded_number_of_param_pairs(tmp_path, capsys):
    from qfocklab.qfock import MEMO_PARAM_PAIRS, FockParams, _pair_memo, symmetrizer

    # six values of q no other test uses, at dim 3
    args = ["threshold", "--dim", "3", "--max-level", "4", "--grid", "0.11:0.16:0.01"]
    assert main([*args, "--out", str(tmp_path / "t.csv")]) == 0
    assert _pair_memo.cache_info().currsize == MEMO_PARAM_PAIRS

    def misses_after(*qs):
        for q in qs:
            symmetrizer(FockParams(q=q, dim=3, max_level=4), 2)
        return _pair_memo.cache_info().misses

    # the last four grid points are kept, least recently used first out
    misses = _pair_memo.cache_info().misses
    assert misses_after(0.13, 0.14, 0.15, 0.16) == misses
    assert misses_after(0.11) == misses + 1
    assert misses_after(0.14, 0.15, 0.16, 0.11) == misses + 1
    assert misses_after(0.13) == misses + 2
    assert _pair_memo.cache_info().currsize == MEMO_PARAM_PAIRS


DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


@pytest.mark.parametrize("max_level", [6, 8])
def test_ao_decay_ou_csv_matches_golden_file(tmp_path, max_level):
    # ao-decay --model ou --q 0.3 --dim 2 --word-x 1 --word-y 1, written by
    # the per-element model build that the batched one replaced
    out = tmp_path / "ao.csv"
    args = ["ao-decay", "--model", "ou", "--q", "0.3", "--dim", "2", "--word-x", "1"]
    args += ["--word-y", "1", "--max-level", str(max_level), "--out", str(out)]
    assert main(args) == 0
    golden = os.path.join(DATA, f"ao_decay_ou_q0.3_dim2_m{max_level}.csv")
    with open(golden, "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_verify_json_matches_golden_file(tmp_path):
    # verify --q 0.5 --dim 2 --max-level 6 --seed 3 without its config
    # (which holds paths).  The samples come from random.Random(seed): a
    # change of sampler moves the residuals and rewrites this file, as did
    # the closed-form OU convention vector, which moved the s_isometry
    # residual from 1.78e-15 to 6.66e-16, and the inverse-free adjoint
    # check, which moved annihilation_adjoint from 1.84e-15 to 0, and the
    # Cholesky positivity check, whose whitening residual max |W^H P W - 1|
    # moved gram_positivity from 0 (no negative eigenvalue) to 5.13e-14,
    # and the matmul-only whitener (bordered below 64 rows, halved above),
    # whose rounding moved gram_positivity from 5.13e-14 to 7.37e-14 and
    # s_isometry from 6.66e-16 to 8.88e-16.
    # Any other change must leave it byte-identical
    out = tmp_path / "verify.json"
    args = ["verify", "--q", "0.5", "--dim", "2", "--max-level", "6", "--seed", "3"]
    assert main([*args, "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    del payload["config"]
    got = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    with open(os.path.join(DATA, "verify_q0.5_dim2_m6_seed3.json"), "rb") as fh:
        assert got.encode() == fh.read()


TORUS_GOLDEN_RUNS = {
    "torus_poisson_l2_m3": ["torus", "--semigroup", "poisson", "-l", "2", "-m", "3"],
    "torus_heat_l2_m3": ["torus", "--semigroup", "heat", "-l", "2", "-m", "3"],
    "ao_decay_torus_l1_m1": ["ao-decay", "--model", "torus"],
}


@pytest.mark.parametrize("name", TORUS_GOLDEN_RUNS)
def test_torus_reports_match_golden_files(name, tmp_path, monkeypatch):
    # The torus coefficients are Fractions; the report paths are relative,
    # so the JSON's config is the same in every directory.
    monkeypatch.chdir(tmp_path)
    args = [*TORUS_GOLDEN_RUNS[name], "--out", f"{name}.csv", "--json-out", f"{name}.json"]
    assert main(args) == 0
    for ext in ("csv", "json"):
        with open(os.path.join(DATA, f"{name}.{ext}"), "rb") as fh:
            assert (tmp_path / f"{name}.{ext}").read_bytes() == fh.read(), ext


def test_verify_builds_one_ou_model_and_checks_each_band_once(tmp_path, monkeypatch):
    from qfocklab import ao as ao_mod

    calls = []
    for name in ("build_ou_model", "filtration_check"):
        real = getattr(ao_mod, name)

        def recording(*args, _name=name, _real=real, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(ao_mod, name, recording)
    assert main(["verify", "--max-level", "5", "--out", str(tmp_path / "v.json")]) == 0
    # s_isometry and filtration share one model; bands m + n <= 5 are 21
    assert calls.count("build_ou_model") == 1
    assert calls.count("filtration_check") == 21


def test_verify_band_leak_errors_s_isometry_and_fails_filtration(tmp_path, monkeypatch):
    # s_isometry refuses a model that leaks; filtration reports the leak as its residual
    from qfocklab import ao as ao_mod

    monkeypatch.setattr(ao_mod, "filtration_check", lambda model, m, n: float(m + n == 3))
    jout = tmp_path / "verify.json"
    assert main(["verify", "--max-level", "3", "--out", str(jout)]) == 1
    checks = {c["name"]: c for c in json.loads(jout.read_text())["checks"]}
    assert checks["s_isometry"]["error"] == "FILTRATION_VIOLATION: band leak at levels (0, 3)"
    assert checks["filtration"]["residual"] == 1.0
    assert "error" not in checks["filtration"] and not checks["filtration"]["passed"]


def test_threshold_solves_only_one_level_pencils(tmp_path, monkeypatch):
    # the joint pencil over every lossless source is decay's reference
    # norm; threshold reads only the per-level norms.  Every pencil, for
    # its top or its whole spectrum, is reduced by standard_form.
    from qfocklab.qfock import FockOperator

    original = FockOperator.standard_form
    solved = []

    def recorded(self, sources, *args, **kwargs):
        solved.append(list(sources))
        return original(self, sources, *args, **kwargs)

    monkeypatch.setattr(FockOperator, "standard_form", recorded)
    args = ["threshold", "--dim", "2", "--max-level", "5", "--grid", "0.4:0.6:0.2"]
    assert main([*args, "--out", str(tmp_path / "t.csv")]) == 0
    assert solved and all(len(sources) == 1 for sources in solved)
    solved.clear()
    args = ["decay", "--q", "0.5", "--max-level", "5", "--word-a", "1", "--word-b", "1"]
    assert main([*args, "--out", str(tmp_path / "d.csv")]) == 0
    assert sum(len(sources) > 1 for sources in solved) == 1


def test_partition_check_catches_a_crossing_miscount(tmp_path, monkeypatch):
    from qfocklab import checks
    from qfocklab.partitions import CrossingCount

    cfg = ExperimentConfig(command="verify", max_level=3)
    params = cfg.fock_params()
    assert checks._check_partitions(cfg, params)[0] == 0
    real = checks.crossing_number

    def off_by_one(part):
        count = real(part)
        return CrossingCount(count.regular, count.degenerate + 1)

    monkeypatch.setattr(checks, "crossing_number", off_by_one)
    residual, tol = checks._check_partitions(cfg, params)
    assert residual >= tol
    # miscounting only the figure partition's shape fails the check too
    monkeypatch.setattr(
        checks,
        "crossing_number",
        lambda part: off_by_one(part) if part.shape.sizes == (4, 4, 3) else real(part),
    )
    jout = tmp_path / "verify.json"
    assert main(["verify", "--max-level", "3", "--out", str(jout)]) == 1
    assert json.loads(jout.read_text())["failed_checks"] == ["partition_bruteforce"]


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("q", [-0.8, -0.37, 0.5, 0.8])
def test_gram_positivity_whitening_residual_is_small(q, dim):
    # max_level 6 is the largest verify takes at dim 4 (4^6 = 4096), and
    # the check factors levels up to 5 at every larger one
    from qfocklab import checks

    cfg = ExperimentConfig(command="verify", q=q, dim=dim, max_level=6)
    residual, tol = checks._check_gram_positivity(cfg, cfg.fock_params())
    assert residual < 1e-13 < tol


@pytest.fixture
def patch_gram(monkeypatch):
    """``patch_gram(level, edit)`` replaces the level Gram where the
    whitener (``qfock``) and the check (``checks``) read it by a copy
    that ``edit`` changes in place.  Higher Grams recurse through the
    patched one, so the Gram memo is emptied before and after."""
    from qfocklab import checks, qfock

    real = qfock.symmetrizer

    def patch(level, edit):
        def patched(params, m):
            g = real(params, m)
            if m != level:
                return g
            g = g.copy()
            edit(g)
            return g

        monkeypatch.setattr(qfock, "symmetrizer", patched)
        monkeypatch.setattr(checks, "symmetrizer", patched)

    qfock._pair_memo.cache_clear()
    yield patch
    qfock._pair_memo.cache_clear()


def test_gram_positivity_errors_on_an_indefinite_gram(tmp_path, patch_gram):
    def negate_first_entry(g):
        g[0, 0] = -1.0

    patch_gram(3, negate_first_entry)
    jout = tmp_path / "verify.json"
    assert main(["verify", "--max-level", "3", "--out", str(jout)]) == 1
    checks = {c["name"]: c for c in json.loads(jout.read_text())["checks"]}
    assert checks["gram_positivity"]["error"].startswith("NOT_PSD: level 3 Gram")
    assert checks["gram_positivity"]["residual"] is None


def test_gram_positivity_reads_the_upper_triangle(patch_gram):
    # the Cholesky factor reads only the lower triangle, so an edit above
    # the diagonal shows only in the residual W^H P W - 1
    from qfocklab import checks

    def perturb_upper(g):
        g[0, 1] += 1e-9

    cfg = ExperimentConfig(command="verify", max_level=3)
    patch_gram(2, perturb_upper)
    residual, tol = checks._check_gram_positivity(cfg, cfg.fock_params())
    assert residual >= tol


# Runs that read operator norms, never a whole spectrum: the benchmark's
# verify, threshold and ao-decay invocations, and the torus model.
EIGENSOLVER_FREE_RUNS = {
    "verify-m6": ["verify", "--q", "0.5", "--dim", "2", "--max-level", "6", "--seed", "3"],
    "threshold-dim4": [
        *["threshold", "--dim", "4", "--max-level", "5"],
        *["--grid", "0.40:0.60:0.05", "--route", "rstar"],
    ],
    "ao-decay-ou": [
        *["ao-decay", "--model", "ou", "--q", "0.3", "--dim", "2"],
        *["--max-level", "6", "--word-x", "1", "--word-y", "1"],
    ],
    "ao-decay-torus": ["ao-decay", "--model", "torus"],
}


@pytest.mark.parametrize("name", EIGENSOLVER_FREE_RUNS)
def test_runs_without_an_eigensolver(name, tmp_path, monkeypatch):
    from qfocklab import numerics

    def refuse(*args, **kwargs):
        raise AssertionError("an eigensolver ran")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    monkeypatch.setattr(numerics, "hermitian_eig", refuse)
    args = EIGENSOLVER_FREE_RUNS[name]
    assert main([*args, "--out", str(tmp_path / "out")]) == 0


def test_failed_write_leaves_the_old_file_and_no_temporary(tmp_path, monkeypatch):
    from qfocklab import reports
    from qfocklab.errors import OutputWriteError

    out = tmp_path / "d.csv"
    out.write_text("old\n")

    def full(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(reports.os, "replace", full)
    with pytest.raises(OutputWriteError, match="No space left on device"):
        reports.write_text(str(out), "new\n")
    assert out.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["d.csv"]
    monkeypatch.undo()
    reports.write_text(str(out), "new\n")
    assert out.read_text() == "new\n" and os.listdir(tmp_path) == ["d.csv"]


# Edge-case invocations: argv, the exit code, and what standard error
# must say.  "{tmp}" is a temporary directory; the bad config files of
# BAD_CONFIG_INPUTS join them.
ROBUSTNESS_CASES = {
    "decay-out-full": (["decay", "--max-level", "4", "--out", "/dev/full"], 2, "WRITE_FAILED"),
    "decay-json-out-full": (
        ["decay", "--max-level", "4", "--json-out", "/dev/full"],
        2,
        "WRITE_FAILED",
    ),
    "verify-out-full": (["verify", "--max-level", "3", "--out", "/dev/full"], 2, "WRITE_FAILED"),
    "out-is-a-directory": (["decay", "--max-level", "4", "--out", "{tmp}"], 2, "WRITE_FAILED"),
    "torus-window-over-cap": (["torus", "--window", "1000000000"], 2, "window must lie in 1..4096"),
    "ao-decay-window-over-cap": (
        ["ao-decay", "--model", "torus", "--window", "100000000"],
        2,
        "window must lie in 1..4096",
    ),
    "window-one-over-cap": (["torus", "--window", "4097"], 2, "window must lie in 1..4096"),
    "window-zero": (["torus", "--window", "0"], 2, "window must lie in 1..4096"),
    "q-over-cap": (["decay", "--q", "0.95"], 2, "conditioning range"),
    "q-nan": (["decay", "--q", "nan"], 2, "config error"),
    "dim-zero": (["decay", "--dim", "0"], 2, "dim must be >= 1"),
    "negative-level": (["decay", "--max-level", "-1"], 2, "max_level must be >= 0"),
    "verify-level-2": (["verify", "--max-level", "2"], 2, "max_level >= 3"),
    "negative-seed": (["verify", "--max-level", "3", "--seed", "-1"], 2, "seed must be >= 0"),
    "zero-tol": (["verify", "--max-level", "3", "--tol", "0"], 2, "tol must be > 0"),
    "word-out-of-range": (["decay", "--max-level", "4", "--word-a", "3"], 2, "indices must lie"),
    "word-not-a-number": (["decay", "--max-level", "4", "--word-a", "x"], 2, "comma-separated"),
    "unknown-route": (["decay", "--max-level", "4", "--route", "none"], 2, "unknown route"),
    "unknown-model": (["ao-decay", "--model", "none"], 2, "unknown model"),
    "unknown-semigroup": (["torus", "--semigroup", "none"], 2, "unknown semigroup"),
    "grid-inverted": (["threshold", "--max-level", "4", "--grid", "0.5:0.4:0.1"], 2, "bad grid"),
    "grid-too-fine": (["threshold", "--max-level", "4", "--grid", "0:0.8:1e-9"], 2, "more than"),
    "flag-not-an-int": (["decay", "--dim", "two"], 2, "invalid int value"),
    "unknown-flag": (["decay", "--nope", "1"], 2, "unrecognized arguments"),
    "no-finite-ratio": (["decay", "--q", "0.79", "--max-level", "2"], 2, "TRUNCATION_LOSS"),
    # threshold builds each grid point's parameters through the config
    "threshold-level-over-the-einsum-alphabet": (
        ["threshold", "--dim", "1", "--max-level", "52"],
        2,
        "config error: [CONFIG_ERROR] [LEVEL_TOO_LARGE] max_level 52",
    ),
    "threshold-word-over-the-budget": (
        ["threshold", "--dim", "1000000000", "--max-level", "0"],
        2,
        "config error: [CONFIG_ERROR] [LEVEL_TOO_LARGE] level 1 with dim 1000000000",
    ),
    "verify-tiny-tol": (["verify", "--max-level", "3", "--tol", "1e-300"], 1, ""),
    "verify-out-device": (["verify", "--max-level", "3", "--out", os.devnull], 0, ""),
    **{
        f"config-{case}": (
            ["decay"]
            + extra
            + ([] if text is None else ["--config", "{tmp}/cfg.json"]),
            2,
            says,
        )
        for case, (text, extra, says) in BAD_CONFIG_INPUTS.items()
    },
}


@pytest.mark.parametrize("case", ROBUSTNESS_CASES)
def test_edge_case_invocations_exit_cleanly(case, tmp_path, monkeypatch, capsys):
    from qfocklab import torus

    def build(*args, **kwargs):
        raise AssertionError("a torus map was built")

    # no case runs the torus, so a window cap that let one through
    # cannot start an unbounded run
    for name in ("psi_table", "poisson_t_decay"):
        monkeypatch.setattr(torus, name, build)
    argv, expected, says = ROBUSTNESS_CASES[case]
    if "/dev/full" in argv and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this system")
    config = BAD_CONFIG_INPUTS.get(case.removeprefix("config-"), (None,))[0]
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
    argv = [a.format(tmp=tmp_path) for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses the command line
        code = exc.code
    err = capsys.readouterr().err
    assert code == expected, err
    assert "Traceback" not in err
    assert says in err, err
    if code == 2 and "usage:" not in err:
        assert err.count("\n") == 1, err



# Each flag's valid values, then values the command must refuse.
WORDS = (["1", "1,1", "2,1", ""], ["0", "5", "x", "1,,2"])
OUT = (["{tmp}/out"], ["{tmp}/missing/out"])
FUZZ_FLAGS = {
    "--q": (["0.5", "-0.37", "0", "0.8"], ["0.95", "nan", "-inf", "x"]),
    "--p": (["1", "2", "inf"], ["0.5", "nan"]),
    "--word-a": WORDS,
    "--word-b": WORDS,
    "--word-x": WORDS,
    "--word-y": WORDS,
    "--window": (["1", "8", "16", "64"], ["-1", "0", "7", "5000"]),
    "--seed": (["0", "3"], ["-1", "x"]),
    "--tol": (["1e-8", "1e-300"], ["0", "-1", "nan"]),
    "--grid": (["0.4:0.5:0.1", "0.3:0.7:0.2"], ["0.5:0.4:0.1", "0:0.9:0.3", "0:0.8:1e-9", "a"]),
    "--route": (["direct", "partition", "rstar"], ["none"]),
    "--model": (["ou", "torus"], ["none"]),
    "--semigroup": (["heat", "poisson"], ["none"]),
    "-l": (["0", "1", "3"], ["-1"]),
    "-m": (["0", "1", "3"], ["-1"]),
    "--time": (["0", "0.5"], ["-1", "inf", "nan"]),
    "--out": OUT,
    "--json-out": OUT,
    # drawn with the level bound, so only their refused values are listed
    "--dim": ([], ["0", "-1", "two"]),
    "--max-level": ([], ["-1", "x"]),
}


@settings(max_examples=40, deadline=None)
@given(command=st.sampled_from(sorted(COMMANDS)), dim=st.integers(1, 4), data=st.data())
def test_small_invocations_exit_0_1_or_2_without_a_traceback(
    command, dim, data, tmp_path_factory
):
    # Levels stay small (dim^M <= 64, verify at M <= 3) so that each call
    # is quick.  A drawn flag takes a valid value; in half the calls one
    # flag then takes a value that must be refused.
    top = 3 if command == "verify" else max(m for m in range(7) if dim**m <= 64)
    values = {"--dim": str(dim), "--max-level": str(data.draw(st.integers(2, top)))}
    for flag in data.draw(st.sets(st.sampled_from(sorted(FUZZ_FLAGS.keys() - values)), max_size=4)):
        values[flag] = data.draw(st.sampled_from(FUZZ_FLAGS[flag][0]))
    if data.draw(st.booleans()):
        broken = data.draw(st.sampled_from(sorted(values)))
        values[broken] = data.draw(st.sampled_from(FUZZ_FLAGS[broken][1]))
    tmp = tmp_path_factory.mktemp("fuzz")
    argv = [command]
    for flag, value in values.items():
        argv += [flag, value.format(tmp=tmp)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), argv
