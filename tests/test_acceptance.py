"""Acceptance suite: every criterion runs at its stated tolerance and
prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time

import numpy as np
import pytest

from qfocklab.partitions import PairPartition, SegmentShape, crossing_number
from qfocklab.qfock import FockParams, r_star, r_star3, symmetrizer
from qfocklab.numerics import hermitian_eig
from qfocklab.wick import Element, product_direct, product_partition, product_triple, wick
from qfocklab.gradient import (
    fit_log_slope,
    gradient_map,
    level_norm,
    nabla_pairing_two_ways,
    schatten_diagnostic,
)
from qfocklab import cohomology as coh
from qfocklab import ao as ao_mod
from qfocklab import torus as torus_mod
from oracles import iterated_pairing_two_ways, pairing_norm, verify_derivation_norm


def report(criterion: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_01_figure_partition():
    shape = SegmentShape((4, 4, 3))
    part = PairPartition([(2, 7), (4, 9), (8, 10)], [1, 3, 5, 6, 11], shape)
    start = time.perf_counter()
    cr = crossing_number(part)
    elapsed = time.perf_counter() - start
    ok = (cr.regular, cr.degenerate, cr.total) == (2, 5, 7) and elapsed < 1e-3
    report(1, ok, f"c={cr.regular} d={cr.degenerate} cr={cr.total} in {elapsed*1e6:.0f}us")


def test_criterion_02_heat_formula_exact():
    window = range(-16, 17)
    start = time.perf_counter()
    ok = True
    for l in range(-5, 6):
        for m in range(-5, 6):
            for k in window:
                if torus_mod.heat_psi_coefficient(l, m, k) != -l * m:
                    ok = False
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10e-3
    report(2, ok, f"all (l, m, k) coefficients equal -l*m in {elapsed*1e3:.2f}ms")


def test_criterion_03_poisson_vanishing():
    violations = 0
    for l in range(-5, 6):
        for m in range(-5, 6):
            for k in range(-32, 33):
                if abs(k) >= abs(l) + abs(m):
                    if torus_mod.poisson_psi_coefficient(l, m, k) != 0:
                        violations += 1
    report(3, violations == 0, f"{violations} nonzero coefficients beyond the support bound")


def test_criterion_04_product_oracle_triangle():
    rng = np.random.default_rng(2024)
    q_choices = (0.3, -0.3, 0.6, -0.6)
    start = time.perf_counter()
    worst = 0.0
    for case in range(50):
        dim = int(rng.integers(2, 4))
        q = q_choices[int(rng.integers(0, 4))]
        while True:
            count = int(rng.integers(2, 4))
            levels = [int(rng.integers(1, 4)) for _ in range(count)]
            if sum(levels) <= 6:
                break
        params = FockParams(q=q, dim=dim, max_level=6)
        syms = [rng.standard_normal((dim,) * n) for n in levels]
        direct = product_direct(params, syms)
        part = product_partition(params, syms)
        scale = max(direct.q_norm(), 1.0)
        worst = max(worst, (part - direct).q_norm() / scale)
        if count == 3:
            trip = product_triple(params, *syms)
            worst = max(worst, (trip - direct).q_norm() / scale)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 30.0
    report(4, ok, f"50 cases, worst relative residual {worst:.2e} in {elapsed:.1f}s")


def test_criterion_05_gradient_map_triangle():
    start = time.perf_counter()
    worst = 0.0
    for q in (0.3, 0.6):
        params = FockParams(q=q, dim=2, max_level=8)
        rng = np.random.default_rng(int(q * 100))
        for n in (1, 2):
            for k in (1, 2):
                a = wick(params, rng.standard_normal((2,) * n))
                b = wick(params, rng.standard_normal((2,) * k))
                maps = {
                    route: gradient_map(a, b, 0.0, route)
                    for route in ("direct", "partition", "rstar")
                }
                keys = set().union(*(m.blocks for m in maps.values()))
                for key in keys:
                    mats = [
                        np.asarray(m.blocks.get(key, 0.0))
                        for m in maps.values()
                    ]
                    worst = max(
                        worst,
                        float(np.max(np.abs(mats[0] - mats[1]))),
                        float(np.max(np.abs(mats[0] - mats[2]))),
                    )
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 60.0
    report(5, ok, f"route triangle worst deviation {worst:.2e} in {elapsed:.1f}s")


def test_criterion_06_split_identities():
    worst = 0.0
    for dim in (1, 2, 3):
        for q in (-0.5, 0.5):
            params = FockParams(q=q, dim=dim, max_level=5)
            for n in range(6):
                for k in range(6 - n):
                    if n + k < 1:
                        continue
                    lhs = symmetrizer(params, n + k)
                    rhs = np.kron(symmetrizer(params, n), symmetrizer(params, k)) @ r_star(
                        params, n, k
                    )
                    scale = max(np.linalg.norm(lhs), 1.0)
                    worst = max(worst, float(np.linalg.norm(lhs - rhs)) / scale)
            for n in range(6):
                for k in range(6 - n):
                    for l in range(6 - n - k):
                        if min(n, k, l) < 0 or n + k + l < 1:
                            continue
                        got = r_star3(params, n, k, l)
                        left = np.kron(r_star(params, n, k), np.eye(dim**l)) @ r_star(
                            params, n + k, l
                        )
                        right = np.kron(np.eye(dim**n), r_star(params, k, l)) @ r_star(
                            params, n, k + l
                        )
                        scale = max(np.linalg.norm(got), 1.0)
                        worst = max(worst, float(np.linalg.norm(got - left)) / scale)
                        worst = max(worst, float(np.linalg.norm(got - right)) / scale)
                        # r_star3 is built as `left`; the three-part Gram
                        # identity checks it independently
                        gram = symmetrizer(params, n + k + l)
                        parts = np.kron(
                            np.kron(symmetrizer(params, n), symmetrizer(params, k)),
                            symmetrizer(params, l),
                        )
                        scale = max(np.linalg.norm(gram), 1.0)
                        worst = max(worst, float(np.linalg.norm(gram - parts @ got)) / scale)
    report(6, worst < 1e-11, f"split identities worst relative residual {worst:.2e}")


def test_criterion_07_gram_positivity():
    worst = np.inf
    for dim in (1, 2, 3):
        for q in (-0.8, -0.5, -0.2, 0.0, 0.2, 0.5, 0.8):
            params = FockParams(q=q, dim=dim, max_level=5)
            for m in range(6):
                w, _ = hermitian_eig(symmetrizer(params, m))
                worst = min(worst, float(w[0]))
    report(7, worst > 0.0, f"smallest symmetrizer eigenvalue {worst:.3e}")


def test_criterion_08_pairing_norm():
    worst = 0.0
    for dim in range(1, 6):
        params = FockParams(q=0.41, dim=dim, max_level=2)
        worst = max(worst, abs(pairing_norm(params, 1) - np.sqrt(dim)))
    report(8, worst < 1e-9, f"single-factor pairing norm deviation {worst:.2e}")


def test_criterion_09_threshold_brackets():
    start = time.perf_counter()
    outcomes = {}
    for dim, p, q in [(4, 2, 0.45), (4, 2, 0.55), (2, 2, 0.657), (2, 2, 0.757)]:
        max_level = 6 if dim == 4 else 8
        params = FockParams(q=q, dim=dim, max_level=max_level)
        a = wick(params, [1])
        rep = schatten_diagnostic(gradient_map(a, a, 0.0, "rstar"), p)
        outcomes[(dim, p, q)] = rep.verdict
    elapsed = time.perf_counter() - start
    ok = (
        outcomes[(4, 2, 0.45)] == "CONVERGENT"
        and outcomes[(4, 2, 0.55)] == "DIVERGENT"
        and outcomes[(2, 2, 0.657)] == "CONVERGENT"
        and outcomes[(2, 2, 0.757)] == "DIVERGENT"
        and elapsed < 120.0
    )
    report(9, ok, f"verdicts {outcomes} in {elapsed:.1f}s")


def test_criterion_10_level_norm_slope():
    params = FockParams(q=0.5, dim=2, max_level=10)
    a = wick(params, [1])
    psi = gradient_map(a, a, 0.0, "rstar")
    levels = list(range(3, 9))
    values = [level_norm(psi, m) for m in levels]
    slope, _ = fit_log_slope(levels, values)
    ok = slope <= np.log(0.5) + 0.15
    report(10, ok, f"log level-norm slope {slope:.4f} vs log(1/2)+0.15 = {np.log(0.5)+0.15:.4f}")


def test_criterion_11_cohomology_identities():
    params = FockParams(q=0.4, dim=2, max_level=6)
    residuals = {}
    for name, fn in [
        ("d_squared", coh.verify_bar_square),
        ("prefix_anticommutator", coh.verify_prefix_anticommutes),
        ("leibniz", coh.verify_leibniz),
        ("derivation_norm", verify_derivation_norm),
    ]:
        rows = fn(params, samples=20)
        residuals[name] = max(r.residual for r in rows)
        assert all(r.tolerance == 1e-8 for r in rows)
    ok = all(v < 1e-8 for v in residuals.values())
    report(11, ok, "worst residuals " + str({k: f"{v:.1e}" for k, v in residuals.items()}))


def test_criterion_12_pairing_identity_and_iterate():
    params = FockParams(q=0.3, dim=2, max_level=8)
    rng = np.random.default_rng(12)
    worst = 0.0

    def rand(level):
        return Element(params, {level: rng.standard_normal((2,) * level)})

    for _ in range(20):
        lhs, rhs = nabla_pairing_two_ways(
            rand(1), rand(1), (rand(2), rand(1)), (rand(1), rand(2)), params
        )
        worst = max(worst, abs(lhs - rhs))
    for _ in range(20):
        chain_a = (rand(1), rand(1), rand(1))
        chain_b = (rand(1), rand(1), rand(1))
        lhs, rhs = iterated_pairing_two_ways(rand(1), rand(1), chain_a, chain_b, params)
        worst = max(worst, abs(lhs - rhs))
    report(12, worst < 1e-8, f"pairing identity worst residual {worst:.2e}")


def test_criterion_13_s_isometry():
    model = ao_mod.build_ou_model(FockParams(q=0.5, dim=2, max_level=6))
    fock_dev = ao_mod.s_isometry_report(model)
    gram = torus_mod.poisson_s_gram(16)
    torus_dev = float(np.max(np.abs(gram - np.eye(gram.shape[0]))))
    ok = fock_dev < 1e-8 and torus_dev < 1e-10
    report(13, ok, f"isometry deviation: fock {fock_dev:.2e}, torus {torus_dev:.2e}")


def test_criterion_14_filtration_bands():
    model = ao_mod.build_ou_model(FockParams(q=0.5, dim=2, max_level=6))
    worst = 0.0
    for m in range(6):
        for n in range(6 - m):
            worst = max(worst, ao_mod.filtration_check(model, m, n))
    report(14, worst < 1e-9, f"out-of-band/parity mass {worst:.2e} over bands m+n<=5")


def test_criterion_15_defect_decay_proxies():
    params = FockParams(q=0.3, dim=2, max_level=8)
    model = ao_mod.build_ou_model(params)
    x = wick(params, [1])
    rows = ao_mod.ou_t_decay_table(model, x, x)
    values = [v for *_, v in rows]
    fock_verdict = ao_mod.decay_verdict(values, factor=0.5)
    torus_rows = torus_mod.poisson_t_decay(1, 1, 64)
    tvals = {j: v for j, _, v in torus_rows}
    torus_hi = max(j * tvals[j] for j in range(32, 65))
    torus_lo = max(j * tvals[j] for j in range(8, 17))
    ok = fock_verdict.trend_pass and torus_hi <= 2 * torus_lo
    report(
        15,
        ok,
        f"fock tail {fock_verdict.tail:.3f} < 0.5*head {0.5*fock_verdict.head:.3f}; "
        f"torus weighted sup {torus_hi:.3f} <= 2 x {torus_lo:.3f}",
    )
