"""Experiment runner and verification harness.

Subcommands: ``verify``, ``decay``, ``threshold``, ``ao-decay``,
``torus``.  Flags override an optional JSON config file; every report
embeds the fully resolved configuration.  Exit codes: 0 all checks
pass, 1 a verification check failed, 2 configuration/usage error.
Every table, norm and verdict in a report comes from a library call;
the CLI itself only derives the reference constants log|q| and
dim^(-1/p) from the configuration.

Only the modules that ``decay`` and ``threshold`` run are imported at
the top; ``verify``, ``ao-decay`` and ``torus`` import theirs
(``checks``, ``ao``, ``torus``) when they start, so no process compiles
a module it does not use.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import ConfigError, QFockError
from .gradient import fit_log_slope, gradient_map, schatten_diagnostic, truncated_schatten_norm
from .qfock import FockParams
from .reports import format_number, render_csv, write_json, write_text
from .wick import Element, wick

CONDITIONING_Q_CAP = 0.8
# Points of one parameter grid; threshold solves a gradient map per point.
GRID_POINT_CAP = 1000
# Modes on each side of a torus window.  The torus runs grow linearly
# with it; at the cap, ao-decay --model torus takes about 0.5 s.
WINDOW_CAP = 4096
# The torus ao-decay head statistic spans modes [K/8, K/4] of a window
# of K modes, which is empty below K = 8.
TORUS_TREND_MIN_WINDOW = 8
# The wick_triangle check multiplies three words of level 1 or 2, whose
# levels sum to at least 3.
VERIFY_MIN_LEVEL = 3


@dataclass
class ExperimentConfig:
    command: str
    q: float = 0.5
    dim: int = 2
    max_level: int = 6
    p: float = 2.0
    word_a: list[int] = field(default_factory=lambda: [1])
    word_b: list[int] = field(default_factory=lambda: [1])
    word_x: list[int] = field(default_factory=lambda: [1])
    word_y: list[int] = field(default_factory=lambda: [1])
    window: int = 16
    seed: int = 42
    tol: float | None = None
    out: str | None = None
    json_out: str | None = None
    grid: str = "0.30:0.70:0.05"
    route: str = "rstar"
    model: str = "ou"
    semigroup: str = "poisson"
    l: int = 1
    m: int = 1
    time_t: float = 0.0

    def validate(self) -> None:
        if abs(self.q) > CONDITIONING_Q_CAP:
            raise ConfigError(
                f"|q| = {abs(self.q)} outside the supported conditioning range "
                f"<= {CONDITIONING_Q_CAP}"
            )
        if self.dim < 1:
            raise ConfigError(f"dim must be >= 1, got {self.dim}")
        if self.max_level < 0:
            raise ConfigError(f"max_level must be >= 0, got {self.max_level}")
        if self.command == "verify" and self.max_level < VERIFY_MIN_LEVEL:
            raise ConfigError(
                f"verify needs max_level >= {VERIFY_MIN_LEVEL}, got {self.max_level}"
            )
        if not 0 <= self.time_t < np.inf:
            raise ConfigError(f"time must be >= 0 and finite, got {self.time_t}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.tol is not None and not 0 < self.tol < np.inf:
            raise ConfigError(f"tol must be > 0 and finite, got {self.tol}")
        if not self.p >= 1:  # inf passes, nan does not
            raise ConfigError(f"p must be >= 1, got {self.p}")
        if not 1 <= self.window <= WINDOW_CAP:
            raise ConfigError(f"window must lie in 1..{WINDOW_CAP}, got {self.window}")
        if (
            self.command == "ao-decay"
            and self.model == "torus"
            and self.window < TORUS_TREND_MIN_WINDOW
        ):
            raise ConfigError(
                f"ao-decay --model torus needs window >= {TORUS_TREND_MIN_WINDOW}, "
                f"got {self.window}"
            )
        for name in ("word_a", "word_b", "word_x", "word_y"):
            word = getattr(self, name)
            if any(not 1 <= i <= self.dim for i in word):
                raise ConfigError(f"{name} indices must lie in 1..{self.dim}")
        if self.route not in ("direct", "partition", "rstar"):
            raise ConfigError(f"unknown route {self.route!r}")
        if self.model not in ("ou", "torus"):
            raise ConfigError(f"unknown model {self.model!r}")
        if self.semigroup not in ("heat", "poisson"):
            raise ConfigError(f"unknown semigroup {self.semigroup!r}")
        for name in ("out", "json_out"):
            path = getattr(self, name)
            if path and not os.path.isdir(os.path.dirname(path) or "."):
                raise ConfigError(f"{name} directory of {path!r} does not exist")
        if self.command == "threshold":
            for q in parse_grid(self.grid):
                if abs(q) > CONDITIONING_Q_CAP:
                    raise ConfigError(f"grid point {q} outside |q| <= {CONDITIONING_Q_CAP}")

    def fock_params(self) -> FockParams:
        """The Fock parameters, with the level of every word checked
        against the vector budget before any word is built."""
        try:
            params = FockParams(q=self.q, dim=self.dim, max_level=self.max_level)
            for word in (self.word_a, self.word_b, self.word_x, self.word_y):
                params.check_level_budget(len(word))
        except QFockError as exc:
            raise ConfigError(str(exc)) from exc
        return params


def parse_grid(spec: str) -> list[float]:
    try:
        lo, hi, step = (float(part) for part in spec.split(":"))
    except ValueError as exc:
        raise ConfigError(f"grid must be lo:hi:step, got {spec!r}") from exc
    if not all(np.isfinite((lo, hi, step))):
        raise ConfigError(f"grid bounds and step must be finite, got {spec!r}")
    if step <= 0 or hi < lo:
        raise ConfigError(f"bad grid bounds {spec!r}")
    steps = (hi - lo) / step
    if not steps <= GRID_POINT_CAP - 1:  # counted before any point is made
        raise ConfigError(f"grid {spec!r} has more than {GRID_POINT_CAP} points")
    count = int(round(steps))
    values = [round(lo + i * step, 12) for i in range(count + 1)]
    return [v for v in values if v <= hi + 1e-12]


def parse_word(text: str) -> list[int]:
    if not text:
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"word must be comma-separated indices, got {text!r}") from exc


def cmd_verify(cfg: ExperimentConfig) -> int:
    from . import checks
    from .cohomology import TOP_SAMPLED_LEVEL

    params = cfg.fock_params()
    try:
        params.check_level_budget(TOP_SAMPLED_LEVEL)
    except QFockError as exc:
        raise ConfigError(f"sampled checks form level {TOP_SAMPLED_LEVEL}: {exc}") from exc
    results = []
    for res in checks.run_checks(cfg, params):
        results.append(res)
        if res.error:
            print(f"[FAIL] {res.name}: error={res.error} ({res.seconds:.2f}s)")
            continue
        status = "PASS" if res.passed else "FAIL"
        print(
            f"[{status}] {res.name}: residual={format_number(res.residual)} "
            f"tol={format_number(res.tolerance)} ({res.seconds:.2f}s)"
        )
    payload = {
        "config": asdict(cfg),
        "checks": [
            {
                "name": r.name,
                "residual": r.residual,
                "tolerance": r.tolerance,
                "passed": r.passed,
                **({"error": r.error} if r.error else {}),
            }
            for r in results
        ],
        "passed": all(r.passed for r in results),
        "failed_checks": [r.name for r in results if not r.passed],
    }
    if cfg.out:
        write_json(cfg.out, payload)
    return 0 if payload["passed"] else 1


def _report(cfg: ExperimentConfig, header: list[str], rows: list, payload: dict, line: str) -> int:
    """Write the table to ``--out``, or else to standard output, and the
    payload after the resolved configuration to ``--json-out``; then
    print the summary line."""
    csv_text = render_csv(header, rows)
    if cfg.out:
        write_text(cfg.out, csv_text)
    else:
        sys.stdout.write(csv_text)
    if cfg.json_out:
        write_json(cfg.json_out, {"config": asdict(cfg), **payload})
    print(line)
    return 0


def cmd_decay(cfg: ExperimentConfig) -> int:
    params = cfg.fock_params()
    a = wick(params, cfg.word_a)
    b = wick(params, cfg.word_b)
    psi = gradient_map(a, b, cfg.time_t, cfg.route)
    report = schatten_diagnostic(psi, cfg.p)
    schatten_norm = truncated_schatten_norm(psi, cfg.p)
    rows = [
        [r.level, r.level_norm, r.sp_bound, r.partial_sum, r.ratio]
        for r in report.rows
    ]
    fitted = [(r.level, r.level_norm) for r in report.rows if r.level_norm > 0 and r.level >= 1]
    slope, intercept = (float("nan"), float("nan"))
    if len(fitted) >= 2:
        slope, intercept = fit_log_slope(*zip(*fitted))
    payload = {
        "ratio_estimate": report.ratio_estimate,
        "verdict": report.verdict,
        "truncated_schatten_norm": schatten_norm,
        "fitted_log_slope": slope,
        "fitted_log_intercept": intercept,
        "log_abs_q": float(np.log(abs(params.q))) if params.q else None,
    }
    line = (
        f"decay: {len(rows)} rows, verdict={report.verdict}, "
        f"fitted slope={format_number(slope)}"
    )
    header = ["m", "level_norm", "sp_bound", "partial_sum", "ratio"]
    return _report(cfg, header, rows, payload, line)


def cmd_threshold(cfg: ExperimentConfig) -> int:
    grid = parse_grid(cfg.grid)
    rows = []
    for q in grid:
        params = replace(cfg, q=q).fock_params()
        a = wick(params, cfg.word_a)
        b = wick(params, cfg.word_b)
        report = schatten_diagnostic(gradient_map(a, b, 0.0, cfg.route), cfg.p)
        rows.append([q, report.ratio_estimate, report.threshold_ratio, report.verdict])
    flips = [(lo[0], hi[0]) for lo, hi in zip(rows, rows[1:]) if lo[3] != hi[3]]
    payload = {
        "predicted_threshold": cfg.dim ** (-1.0 / cfg.p),
        "verdict_flips": flips,
        "flip_count": len(flips),
    }
    line = f"threshold: {len(rows)} grid points, {len(flips)} verdict flip(s)"
    header = ["q", "ratio_estimate", "predicted_ratio", "verdict"]
    return _report(cfg, header, rows, payload, line)


def cmd_ao_decay(cfg: ExperimentConfig) -> int:
    from . import ao

    if cfg.model == "ou":
        params = cfg.fock_params()
        model = ao.build_ou_model(params)
        x = Element.word(params, cfg.word_x)
        y = Element.word(params, cfg.word_y)
        table = ao.ou_t_decay_table(model, x, y)
        verdict = ao.decay_verdict([v for *_, v in table], 0.5)
    else:
        from . import torus

        table = torus.poisson_t_decay(cfg.l, cfg.m, cfg.window)
        verdict = ao.DecayVerdict(*torus.poisson_t_trend(table), 2.0)
    # Reported only once the verdict stands, so a refused table leaves no file.
    payload = {
        "head": verdict.head,
        "tail": verdict.tail,
        "factor": verdict.factor,
        "trend_pass": verdict.trend_pass,
    }
    line = (
        f"ao-decay[{cfg.model}]: head={format_number(verdict.head)} "
        f"tail={format_number(verdict.tail)} trend_pass={verdict.trend_pass}"
    )
    return _report(cfg, ["n", "lambda_n", "block_norm"], table, payload, line)


def cmd_torus(cfg: ExperimentConfig) -> int:
    from . import torus

    table = torus.psi_table(cfg.semigroup, cfg.l, cfg.m, cfg.window)
    nonzero = [k for k, coeff in table if coeff != 0]
    payload = {
        "nonzero_count": len(nonzero),
        "support": nonzero,
        "rank_bound": torus.poisson_rank_bound(cfg.l, cfg.m)
        if cfg.semigroup == "poisson"
        else None,
    }
    line = f"torus[{cfg.semigroup}]: {len(table)} modes, {len(nonzero)} nonzero"
    return _report(cfg, ["k", "coefficient"], table, payload, line)


COMMANDS = {
    "verify": cmd_verify,
    "decay": cmd_decay,
    "threshold": cmd_threshold,
    "ao-decay": cmd_ao_decay,
    "torus": cmd_torus,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfocklab",
        description="Truncated q-Fock laboratory: verification and decay reports",
    )
    # every subcommand takes the same flags, declared once
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--q", type=float)
    common.add_argument("--dim", type=int)
    common.add_argument("--max-level", type=int, dest="max_level")
    common.add_argument("--p", type=float)
    common.add_argument("--word-a", dest="word_a")
    common.add_argument("--word-b", dest="word_b")
    common.add_argument("--word-x", dest="word_x")
    common.add_argument("--word-y", dest="word_y")
    common.add_argument("--window", type=int)
    common.add_argument("--seed", type=int)
    common.add_argument("--tol", type=float)
    common.add_argument("--out")
    common.add_argument("--json-out", dest="json_out")
    common.add_argument("--grid")
    common.add_argument("--route")
    common.add_argument("--model")
    common.add_argument("--semigroup")
    common.add_argument("-l", type=int)
    common.add_argument("-m", type=int)
    common.add_argument("--time", type=float, dest="time_t")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


def _whole(value):
    """A JSON number that is a whole number, as an int; anything else,
    a JSON boolean included, as None."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value if isinstance(value, int) and not isinstance(value, bool) else None


def _config_value(name: str, value):
    """A config-file value checked against its field's type.  A word may
    be given in the flag form "1,2"; an int field and a word index take a
    whole float, and no number field takes a JSON boolean."""
    kind = ExperimentConfig.__dataclass_fields__[name].type
    if kind == "list[int]" and isinstance(value, str):
        return parse_word(value)
    if value is None and kind.endswith(" | None"):
        return None
    kind = kind.removesuffix(" | None")
    got = value
    if kind == "int":
        got = _whole(value)
    elif kind == "list[int]" and isinstance(value, list):
        got = [_whole(i) for i in value]
    ok = {
        "int": got is not None,
        "float": isinstance(value, (int, float)) and not isinstance(value, bool),
        "str": isinstance(value, str),
        "list[int]": isinstance(got, list) and None not in got,
    }[kind]
    if not ok:
        raise ConfigError(f"config key {name!r} must be {kind}, got {value!r}")
    return got


def _read_config(path: str) -> dict:
    try:
        with open(path) as fh:
            base = json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable, or not JSON text
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(base, dict):
        raise ConfigError(f"config must be a JSON object, got {type(base).__name__}")
    unknown = set(base) - (set(ExperimentConfig.__dataclass_fields__) - {"command"})
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return {name: _config_value(name, value) for name, value in base.items()}


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    base = _read_config(args.config) if getattr(args, "config", None) else {}
    cfg = ExperimentConfig(command=args.command, **base)
    for name in ExperimentConfig.__dataclass_fields__:
        if name == "command":
            continue
        got = getattr(args, name, None)
        if got is not None:
            if name.startswith("word_") and isinstance(got, str):
                got = parse_word(got)
            setattr(cfg, name, got)
    cfg.validate()
    return cfg


def _join_grid(argv: list[str]) -> list[str]:
    """``--grid SPEC`` as ``--grid=SPEC``: argparse takes a separate value
    that starts with "-" and is not a plain number, such as a grid with a
    negative lower bound, for an option."""
    out = list(argv)
    for i in range(len(out) - 2, -1, -1):
        if out[i] == "--grid":
            out[i : i + 2] = [f"--grid={out[i + 1]}"]
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_grid(sys.argv[1:] if argv is None else argv))
    try:
        cfg = resolve_config(args)
        return COMMANDS[cfg.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QFockError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
