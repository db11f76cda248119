"""Experiment runner and verification harness.

Subcommands: ``verify``, ``decay``, ``threshold``, ``ao-decay``,
``torus``.  Flags override an optional JSON config file; every report
embeds the fully resolved configuration.  Exit codes: 0 all checks
pass, 1 a verification check failed, 2 configuration/usage error.
The CLI performs no mathematics of its own; every number in a report
comes from a library call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import ao as ao_mod
from . import cohomology as coh
from . import torus as torus_mod
from .errors import ConfigError, QFockError
from .gradient import (
    fit_log_slope,
    gamma,
    gradient_map,
    nabla_pairing_two_ways,
    schatten_diagnostic,
    truncated_schatten_norm,
)
from .numerics import hermitian_eig
from .partitions import (
    PairPartition,
    SegmentShape,
    crossing_number,
    enumerate_pair_partitions,
)
from .qfock import FockParams, annihilation, creation, r_star, r_star3, symmetrizer
from .reports import format_number, render_csv, write_json, write_text
from .wick import Element, product_direct, product_partition, product_triple, wick

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
        try:
            return FockParams(q=self.q, dim=self.dim, max_level=self.max_level)
        except QFockError as exc:
            raise ConfigError(str(exc)) from exc

    def as_dict(self) -> dict:
        return asdict(self)


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


# ---------------------------------------------------------------------------
# verification checks
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    residual: float | None
    tolerance: float | None
    seconds: float
    # "<CODE>: message" of a library error that stopped the check
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.error is None and self.residual < self.tolerance


def _relative_gap(left: Element, right: Element) -> float:
    scale = max(left.q_norm(), right.q_norm(), 1.0)
    return (left - right).q_norm() / scale


def _check_partitions(cfg, params):
    shapes = [(1, 1), (2, 1), (1, 1, 1), (2, 2), (3, 2)]
    mismatches = 0
    for sizes in shapes:
        shape = SegmentShape(sizes)
        seen = set()
        for part in enumerate_pair_partitions(shape):
            if (part.pairs, part.singletons) in seen:
                mismatches += 1
            seen.add((part.pairs, part.singletons))
            cr = crossing_number(part)
            slow_c = sum(
                1
                for a in part.pairs
                for b in part.pairs
                if a != b and a[0] < b[0] < a[1] < b[1]
            )
            slow_d = sum(
                1 for l, r in part.pairs for s in part.singletons if l < s < r
            )
            if (cr.regular, cr.degenerate) != (slow_c, slow_d):
                mismatches += 1
    # The figure partition, built directly: its constructor checks the
    # exact cover and that no pair lies inside a segment.
    fig = crossing_number(
        PairPartition(((2, 7), (4, 9), (8, 10)), (1, 3, 5, 6, 11), SegmentShape((4, 4, 3)))
    )
    if (fig.regular, fig.degenerate, fig.total) != (2, 5, 7):
        mismatches += 1
    return float(mismatches), 0.5


def _check_gram_positivity(cfg, params):
    worst = -np.inf
    for q in sorted({params.q, 0.8, -0.8}):
        pp = FockParams(q=q, dim=params.dim, max_level=params.max_level)
        for m in range(min(params.max_level, 5) + 1):
            w, _ = hermitian_eig(symmetrizer(pp, m))
            worst = max(worst, -float(w[0]))
    return max(worst, 0.0), 1e-12


def _check_rstar(cfg, params):
    worst = 0.0
    combos = [(1, 1), (1, 2), (2, 1), (2, 2)]
    for n, k in combos:
        if n + k > params.max_level:
            continue
        lhs = symmetrizer(params, n + k)
        rhs = np.kron(symmetrizer(params, n), symmetrizer(params, k)) @ r_star(params, n, k)
        worst = max(worst, float(np.linalg.norm(lhs - rhs) / max(np.linalg.norm(lhs), 1.0)))
    for n, k, l in [(1, 1, 1), (2, 1, 1), (1, 2, 1)]:
        if n + k + l > params.max_level:
            continue
        got = r_star3(params, n, k, l)
        left = np.kron(r_star(params, n, k), np.eye(params.dim**l)) @ r_star(params, n + k, l)
        right = np.kron(np.eye(params.dim**n), r_star(params, k, l)) @ r_star(params, n, k + l)
        scale = max(np.linalg.norm(got), 1.0)
        worst = max(worst, float(np.linalg.norm(got - left) / scale))
        worst = max(worst, float(np.linalg.norm(got - right) / scale))
    return worst, 1e-11


def _check_annihilation(cfg, params):
    worst = 0.0
    for i in range(params.dim):
        xi = np.zeros(params.dim)
        xi[i] = 1.0
        lhs = annihilation(params, xi)
        rhs = creation(params, xi).gram_adjoint()
        for key in set(lhs.blocks) | set(rhs.blocks):
            gap = np.abs(
                np.asarray(lhs.blocks.get(key, 0.0)) - np.asarray(rhs.blocks.get(key, 0.0))
            )
            worst = max(worst, float(np.max(gap)))
    return worst, 1e-10


def _check_wick_triangle(cfg, params):
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for _ in range(10):
        levels = rng.integers(1, 3, size=3)
        while int(levels.sum()) > params.max_level:
            levels = rng.integers(1, 3, size=3)
        syms = [rng.standard_normal((params.dim,) * int(n)) for n in levels]
        direct = product_direct(params, syms)
        part = product_partition(params, syms)
        trip = product_triple(params, *syms)
        worst = max(worst, _relative_gap(part, direct), _relative_gap(trip, direct))
    return worst, 1e-9


def _check_psi_triangle(cfg, params):
    rng = np.random.default_rng(cfg.seed + 1)
    worst = 0.0
    for n, k in [(1, 1), (2, 1)]:
        a = wick(params, rng.standard_normal((params.dim,) * n))
        b = wick(params, rng.standard_normal((params.dim,) * k))
        base = gradient_map(a, b, cfg.time_t, "direct")
        for route in ("partition", "rstar"):
            other = gradient_map(a, b, cfg.time_t, route)
            for key in set(base.realized.blocks) | set(other.realized.blocks):
                gap = np.abs(
                    np.asarray(base.realized.blocks.get(key, 0.0))
                    - np.asarray(other.realized.blocks.get(key, 0.0))
                )
                worst = max(worst, float(np.max(gap)))
    return worst, 1e-8


def _check_gamma_positivity(cfg, params):
    rng = np.random.default_rng(cfg.seed + 2)
    worst = 0.0
    for _ in range(6):
        x = Element(params, {1: rng.standard_normal(params.dim), 2: rng.standard_normal((params.dim,) * 2)})
        xi = Element(params, {0: rng.standard_normal(()), 1: rng.standard_normal(params.dim)})
        val = gamma(x, x).mul(xi).q_inner(xi).real
        scale = max(xi.q_norm() ** 2, 1.0)
        worst = max(worst, -val / scale)
    return max(worst, 0.0), 1e-9


def _check_nabla_pairing(cfg, params):
    rng = np.random.default_rng(cfg.seed + 3)
    worst = 0.0
    for _ in range(6):
        def rand(level):
            return Element(params, {level: rng.standard_normal((params.dim,) * level)})

        lhs, rhs = nabla_pairing_two_ways(
            rand(1), rand(1), (rand(2), rand(1)), (rand(1), rand(2)), params
        )
        scale = max(abs(lhs), abs(rhs), 1.0)
        worst = max(worst, abs(lhs - rhs) / scale)
    return worst, 1e-8


def _rows_to_residual(rows):
    return max(r.residual for r in rows)


def _check_leibniz(cfg, params):
    return _rows_to_residual(coh.verify_leibniz(params, seed=cfg.seed, samples=20)), 1e-8


def _check_d_squared(cfg, params):
    return _rows_to_residual(coh.verify_bar_square(params, seed=cfg.seed, samples=10)), 1e-8


def _check_prefix(cfg, params):
    return (
        _rows_to_residual(coh.verify_prefix_anticommutes(params, seed=cfg.seed, samples=20)),
        1e-8,
    )


@functools.lru_cache(maxsize=1)
def _verify_ou_model(params: FockParams):
    """The OU model s_isometry and filtration share within one verify run,
    with its band leaks: one build and one band check per run."""
    model = ao_mod.build_ou_model(params, check=False)
    return model, ao_mod.band_leaks(model)


def _check_s_isometry(cfg, params):
    model, leaks = _verify_ou_model(params)
    # the checks of build_ou_model(params, check=True)
    ao_mod.check_eigenspaces(model)
    ao_mod.require_bands(leaks)
    rep = ao_mod.s_isometry_report(model)
    torus_gram = torus_mod.poisson_s_gram(12)
    torus_dev = float(np.max(np.abs(torus_gram - np.eye(torus_gram.shape[0]))))
    return max(rep.max_deviation, torus_dev), 1e-8


def _check_filtration(cfg, params):
    _, leaks = _verify_ou_model(params)
    return max(leaks.values()), 1e-9


VERIFY_CHECKS = [
    ("partition_bruteforce", _check_partitions),
    ("gram_positivity", _check_gram_positivity),
    ("rstar_identities", _check_rstar),
    ("annihilation_adjoint", _check_annihilation),
    ("wick_triangle", _check_wick_triangle),
    ("psi_triangle", _check_psi_triangle),
    ("gamma_positivity", _check_gamma_positivity),
    ("nabla_pairing", _check_nabla_pairing),
    ("leibniz", _check_leibniz),
    ("d_squared", _check_d_squared),
    ("prefix_anticommutator", _check_prefix),
    ("s_isometry", _check_s_isometry),
    ("filtration", _check_filtration),
]


def cmd_verify(cfg: ExperimentConfig) -> int:
    params = cfg.fock_params()
    _verify_ou_model.cache_clear()
    results = []
    for name, fn in VERIFY_CHECKS:
        start = time.perf_counter()
        # A library error fails this check only; the others still run.
        try:
            residual, tol = fn(cfg, params)
        except QFockError as exc:
            error = f"{exc.code}: {Exception.__str__(exc)}"
            res = CheckResult(name, None, cfg.tol, time.perf_counter() - start, error)
            print(f"[FAIL] {name}: error={error} ({res.seconds:.2f}s)")
            results.append(res)
            continue
        tol = tol if cfg.tol is None else cfg.tol
        res = CheckResult(name, float(residual), float(tol), time.perf_counter() - start)
        results.append(res)
        status = "PASS" if res.passed else "FAIL"
        print(
            f"[{status}] {name}: residual={format_number(res.residual)} "
            f"tol={format_number(res.tolerance)} ({res.seconds:.2f}s)"
        )
    payload = {
        "config": cfg.as_dict(),
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


def _write_csv(cfg: ExperimentConfig, header: list[str], rows: list[list]) -> None:
    """Write the report table to ``--out``, or else to standard output."""
    csv_text = render_csv(header, rows)
    if cfg.out:
        write_text(cfg.out, csv_text)
    else:
        sys.stdout.write(csv_text)


def cmd_decay(cfg: ExperimentConfig) -> int:
    params = cfg.fock_params()
    a = wick(params, cfg.word_a)
    b = wick(params, cfg.word_b)
    psi = gradient_map(a, b, cfg.time_t, cfg.route)
    report = schatten_diagnostic(psi, cfg.p)
    schatten_norm = truncated_schatten_norm(psi, cfg.p)
    header = ["m", "level_norm", "sp_bound", "partial_sum", "ratio"]
    rows = [
        [r.level, r.level_norm, r.sp_bound, r.partial_sum, r.ratio]
        for r in report.rows
    ]
    _write_csv(cfg, header, rows)
    fitted = [(r.level, r.level_norm) for r in report.rows if r.level_norm > 0 and r.level >= 1]
    slope, intercept = (float("nan"), float("nan"))
    if len(fitted) >= 2:
        slope, intercept = fit_log_slope(*zip(*fitted))
    payload = {
        "config": cfg.as_dict(),
        "ratio_estimate": report.ratio_estimate,
        "verdict": report.verdict,
        "truncated_schatten_norm": schatten_norm,
        "fitted_log_slope": slope,
        "fitted_log_intercept": intercept,
        "log_abs_q": float(np.log(abs(params.q))) if params.q else None,
    }
    if cfg.json_out:
        write_json(cfg.json_out, payload)
    print(
        f"decay: {len(rows)} rows, verdict={report.verdict}, "
        f"fitted slope={format_number(slope)}"
    )
    return 0


def cmd_threshold(cfg: ExperimentConfig) -> int:
    grid = parse_grid(cfg.grid)
    header = ["q", "ratio_estimate", "predicted_ratio", "verdict"]
    rows = []
    verdicts = []
    for q in grid:
        params = FockParams(q=q, dim=cfg.dim, max_level=cfg.max_level)
        a = wick(params, cfg.word_a)
        b = wick(params, cfg.word_b)
        report = schatten_diagnostic(gradient_map(a, b, 0.0, cfg.route), cfg.p)
        rows.append([q, report.ratio_estimate, report.threshold_ratio, report.verdict])
        verdicts.append(report.verdict)
    _write_csv(cfg, header, rows)
    flips = [
        (grid[i], grid[i + 1])
        for i in range(len(verdicts) - 1)
        if verdicts[i] != verdicts[i + 1]
    ]
    payload = {
        "config": cfg.as_dict(),
        "predicted_threshold": cfg.dim ** (-1.0 / cfg.p),
        "verdict_flips": flips,
        "flip_count": len(flips),
    }
    if cfg.json_out:
        write_json(cfg.json_out, payload)
    print(f"threshold: {len(rows)} grid points, {len(flips)} verdict flip(s)")
    return 0


def cmd_ao_decay(cfg: ExperimentConfig) -> int:
    if cfg.model == "ou":
        params = cfg.fock_params()
        model = ao_mod.build_ou_model(params)
        x = Element.word(params, cfg.word_x)
        y = Element.word(params, cfg.word_y)
        table = ao_mod.ou_t_decay_table(model, x, y)
        verdict = ao_mod.decay_verdict([v for *_, v in table], 0.5)
    else:
        table = torus_mod.poisson_t_decay(cfg.l, cfg.m, cfg.window)
        # the torus trend statistic weights each block norm by its mode;
        # head statistic over modes [K/8, K/4], tail over [K/2, K]
        values = [j * v for j, _, v in table]
        window = len(values)
        head = max(values[window // 8 - 1 : window // 4])
        tail = max(values[window // 2 - 1 :])
        verdict = ao_mod.DecayVerdict(head, tail, 2.0)
    # Written only once the verdict stands, so a refused table leaves no file.
    _write_csv(cfg, ["n", "lambda_n", "block_norm"], [[n, lam, v] for n, lam, v in table])
    payload = {
        "config": cfg.as_dict(),
        "head": verdict.head,
        "tail": verdict.tail,
        "factor": verdict.factor,
        "trend_pass": verdict.trend_pass,
    }
    if cfg.json_out:
        write_json(cfg.json_out, payload)
    print(
        f"ao-decay[{cfg.model}]: head={format_number(verdict.head)} "
        f"tail={format_number(verdict.tail)} trend_pass={verdict.trend_pass}"
    )
    return 0


def cmd_torus(cfg: ExperimentConfig) -> int:
    builder = torus_mod.heat_psi if cfg.semigroup == "heat" else torus_mod.poisson_psi
    pm = builder(cfg.l, cfg.m, cfg.window)
    table = pm.table()
    header = ["k", "coefficient"]
    rows = [[k, coeff] for k, coeff in table]
    _write_csv(cfg, header, rows)
    nonzero = [k for k, coeff in table if coeff != 0]
    payload = {
        "config": cfg.as_dict(),
        "nonzero_count": len(nonzero),
        "support": nonzero,
        "rank_bound": torus_mod.poisson_rank_bound(cfg.l, cfg.m)
        if cfg.semigroup == "poisson"
        else None,
    }
    if cfg.json_out:
        write_json(cfg.json_out, payload)
    print(f"torus[{cfg.semigroup}]: {len(rows)} modes, {len(nonzero)} nonzero")
    return 0


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
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", help="JSON config file; flags override it")
        cmd.add_argument("--q", type=float)
        cmd.add_argument("--dim", type=int)
        cmd.add_argument("--max-level", type=int, dest="max_level")
        cmd.add_argument("--p", type=float)
        cmd.add_argument("--word-a", dest="word_a")
        cmd.add_argument("--word-b", dest="word_b")
        cmd.add_argument("--word-x", dest="word_x")
        cmd.add_argument("--word-y", dest="word_y")
        cmd.add_argument("--window", type=int)
        cmd.add_argument("--seed", type=int)
        cmd.add_argument("--tol", type=float)
        cmd.add_argument("--out")
        cmd.add_argument("--json-out", dest="json_out")
        cmd.add_argument("--grid")
        cmd.add_argument("--route")
        cmd.add_argument("--model")
        cmd.add_argument("--semigroup")
        cmd.add_argument("-l", type=int)
        cmd.add_argument("-m", type=int)
        cmd.add_argument("--time", type=float, dest="time_t")
    return parser


def _config_value(name: str, value):
    """A config-file value checked against its field's type.  A word may
    be given in the flag form "1,2", and an int field takes a whole float."""
    kind = ExperimentConfig.__dataclass_fields__[name].type
    if kind == "list[int]" and isinstance(value, str):
        return parse_word(value)
    if value is None and kind.endswith(" | None"):
        return None
    kind = kind.removesuffix(" | None")
    if kind == "int" and isinstance(value, float) and value.is_integer():
        value = int(value)
    ok = {
        "int": isinstance(value, int),
        "float": isinstance(value, (int, float)),
        "str": isinstance(value, str),
        "list[int]": isinstance(value, list) and all(isinstance(i, (int, float)) for i in value),
    }[kind]
    if not ok:
        raise ConfigError(f"config key {name!r} must be {kind}, got {value!r}")
    return value


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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
