"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the slowest criterion is the full constrained sweep, criterion 5
(`lrspp optimize --threads 2` at the default grids, a few seconds).
"""

import math
import random
import time

import pytest

from lrspp import cli, datasets
from lrspp.constants import C_LIGHT
from lrspp.coupling import constraint_set, overlap_beta
from lrspp.dispersion import BranchId, complex_wavenumber, solve_k, solve_omega
from lrspp.errors import NoBoundMode, NoMatchingAngle
from lrspp.materials import SILVER, eps_lossless, surface_plasma_frequency
from lrspp.modes import four_layer_solve
from lrspp.propagation import g2_zero, mean_count
from lrspp.statetransfer import CatState, propagate_cat

from test_coupling import beta_quadrature_oracle
from test_datasets_cli import read_csv
from test_propagation import PropagationConfig, Wavepacket, binomial_loss_moments, mean_count_windowed
from test_statetransfer import represented_trace

BRANCHES = (BranchId.ANTISYMMETRIC, BranchId.SYMMETRIC)


def _report(num: int, text: str) -> None:
    print(f"ACCEPTANCE {num:2d} PASS: {text}")


def test_criterion_01_dispersion_fidelity():
    start = time.perf_counter()
    d1 = 20e-9
    worst = 0.0
    for i in range(200):
        k = 2e6 + i * (1.8e7 - 2e6) / 199
        plus = solve_omega(BranchId.ANTISYMMETRIC, k, d1, SILVER)
        minus = solve_omega(BranchId.SYMMETRIC, k, d1, SILVER)
        worst = max(worst, plus.relative_residual(SILVER), minus.relative_residual(SILVER))
        assert plus.relative_residual(SILVER) < 1e-10
        assert minus.relative_residual(SILVER) < 1e-10
        assert plus.omega > minus.omega
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(1, f"200-point residuals < 1e-10 (worst {worst:.2e}), branch order held, {elapsed:.2f} s")


def test_criterion_02_single_interface_limit():
    start = time.perf_counter()
    d1 = 100e-9
    worst = 0.0
    for i in range(20):
        w = 3e15 + i * (5e15 - 3e15) / 19
        em = eps_lossless(SILVER, w)
        k_si = (w / C_LIGHT) * math.sqrt(em / (em + 1.0))
        for branch in BRANCHES:
            sol = solve_omega(branch, k_si, d1, SILVER)
            dev = abs(sol.omega - w) / w
            worst = max(worst, dev)
            assert dev < 0.01
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(2, f"100 nm strip within 1% of the single-interface mode (worst {worst:.2e}), {elapsed:.2f} s")


def test_criterion_03_surface_mode_consistency():
    wp = SILVER.plasma_frequency
    oracle = wp * math.sqrt((-2.0 + math.sqrt(120.0)) / 58.0)
    wsp = surface_plasma_frequency(SILVER)
    assert wsp == pytest.approx(oracle, rel=1e-9)
    k = 50.0 * wsp / C_LIGHT
    for branch in BRANCHES:
        sol = solve_omega(branch, k, 20e-9, SILVER)
        assert sol.omega == pytest.approx(wsp, rel=0.01)
    _report(3, f"w_sp = {wsp / wp:.5f} wp matches the quadratic oracle; large-k limit within 1%")


def test_criterion_04_unitarity():
    crit = math.asin(1.0 / math.sqrt(1.51))
    worst = 0.0
    for i in range(50):
        w = 2.2e15 + i * (5.2e15 - 2.2e15) / 49
        for j in range(50):
            theta = crit + 1e-3 + (math.pi / 2 - crit - 2e-3) * j / 49
            fl = four_layer_solve(w, theta, 20e-9, 400e-9, 1.51, SILVER, lossy=False)
            dev = abs(abs(fl.r) ** 2 + abs(fl.tau) ** 2 - 1.0)
            worst = max(worst, dev)
            assert dev < 1e-9
    coupling_cases = [
        (BranchId.ANTISYMMETRIC, 3.4e15, 30e-9, 900e-9),
        (BranchId.ANTISYMMETRIC, 4.2e15, 55e-9, 450e-9),
        (BranchId.SYMMETRIC, 2.8e15, 25e-9, 800e-9),
        (BranchId.SYMMETRIC, 3.1e15, 45e-9, 600e-9),
    ]
    for branch, w, d1, d2 in coupling_cases:
        beta = overlap_beta(branch, w, d1, d2)
        alpha_sq = 1.0 - abs(beta) ** 2
        assert abs(alpha_sq + abs(beta) ** 2 - 1.0) < 1e-12
    _report(4, f"|r|^2+|tau|^2 = 1 on the 50x50 lossless grid (worst dev {worst:.2e}); mixing identity at 1e-12")


@pytest.fixture(scope="module")
def default_maxima(tmp_path_factory):
    """Each branch's largest g_tilde as `lrspp optimize --branch both`
    prints it at the default grids: 120 omega from 2e15 to 5.4e15 rad/s,
    60 d1 from 10 to 100 nm and 80 d2 steps."""
    out = tmp_path_factory.mktemp("criterion5") / "optimize.csv"
    start = time.perf_counter()
    assert cli.run(["optimize", "--branch", "both", "--threads", "2", "--out", str(out)]) == 0
    elapsed = time.perf_counter() - start
    table = read_csv(out.read_text())
    branch_col, g_col = table["columns"].index("branch"), table["columns"].index("g_tilde")
    maxima = {
        name: max(row[g_col] for row in table["rows"] if row[branch_col] == name and row[g_col] is not None)
        for name in ("plus", "minus")
    }
    return maxima, elapsed


@pytest.mark.slow
def test_criterion_05_headline_coupling(default_maxima):
    maxima, elapsed = default_maxima
    g_plus, g_minus = maxima["plus"], maxima["minus"]
    assert g_plus == pytest.approx(0.90, abs=0.05)
    assert g_minus == pytest.approx(0.80, abs=0.05)
    assert elapsed < 600.0
    _report(5, f"max normalized coupling: plus {g_plus:.3f} (0.90+/-0.05), "
               f"minus {g_minus:.3f} (0.80+/-0.05); sweep {elapsed:.0f} s")


def test_criterion_06_overlap_oracle():
    rng = random.Random(42)
    accepted = 0
    worst = 0.0
    while accepted < 30:
        branch = rng.choice(BRANCHES)
        w = rng.uniform(2.4e15, 5.0e15)
        d1 = rng.uniform(12e-9, 90e-9)
        d2 = rng.uniform(150e-9, 2.0e-6)
        try:
            cons = constraint_set(branch, w, d1, d2)
        except NoBoundMode:
            continue
        if not cons.feasible:
            continue
        try:
            closed = overlap_beta(branch, w, d1, d2)
        except (NoBoundMode, NoMatchingAngle):
            continue
        oracle = beta_quadrature_oracle(branch, w, d1, d2)
        dev = abs(closed - oracle) / abs(oracle)
        worst = max(worst, dev)
        assert dev < 1e-8
        accepted += 1
    _report(6, f"closed-form conversion amplitude vs quadrature on 30 feasible configs (worst {worst:.2e})")


def test_criterion_07_propagation():
    wp = Wavepacket(omega0=4e15, delta_omega=3.02e13, t0=0.0, n=1)
    v_g = 2.8e8
    for x in (0.0, 5e-6, 20e-6):
        cfg = PropagationConfig(kappa0=3e4, v_group=v_g, x=x, mu=0.65)
        closed = mean_count(cfg.mu, cfg.kappa0, cfg.x, 0.9, wp.n)
        windowed = mean_count_windowed(wp, cfg, 0.9)
        assert abs(windowed - closed) / closed < 5e-3
    beta_sq = 0.8117
    cfg0 = PropagationConfig(kappa0=3e4, v_group=v_g, x=0.0, mu=0.65)
    assert mean_count(cfg0.mu, cfg0.kappa0, cfg0.x, beta_sq, wp.n) == 0.65 * beta_sq * wp.n

    kappa_plus, kappa_minus = (
        complex_wavenumber(solve_k(b, 4e15, 20e-9, SILVER), SILVER).kappa
        for b in (BranchId.ANTISYMMETRIC, BranchId.SYMMETRIC)
    )
    assert kappa_plus < kappa_minus
    for x in (1e-7, 1e-6, 5e-6, 2e-5):
        decay_plus = math.exp(-2.0 * kappa_plus * x)
        decay_minus = math.exp(-2.0 * kappa_minus * x)
        assert decay_plus > decay_minus
    _report(7, "mean counts: closed form within 0.5% of the windowed integral; "
               "x = 0 detector factor exact; long-range branch decays slower")


def test_criterion_08_quantum_statistics():
    rng = random.Random(7)
    for n in range(1, 6):
        target = (n - 1) / n
        assert g2_zero(n) == pytest.approx(target, abs=1e-15)
        assert g2_zero(n) < 1.0
        for _ in range(20):
            etas = [rng.uniform(0.05, 1.0) for _ in range(rng.randint(1, 6))]
            eta = math.prod(etas)
            mean, pairs = binomial_loss_moments(n, eta)
            assert abs(pairs / mean**2 - target) < 1e-12
            assert abs(g2_zero(n, beta_sq=eta) - target) < 1e-12
    _report(8, "g2(0) = (n-1)/n for n <= 5, invariant to 1e-12 under 20 random loss chains per n")


def test_criterion_09_cat_state_channel():
    import numpy as np

    from lrspp import fock

    rng = random.Random(11)
    for _ in range(100):
        alpha = rng.uniform(0.05, 6.0)
        g = rng.uniform(0.0, math.pi / 2)
        kx = rng.uniform(0.0, 4.0)
        cat = CatState(alpha)
        dens = propagate_cat(cat, g, 1.0, kx)
        assert abs(represented_trace(cat, dens) - 1.0) < 1e-12
        assert abs(dens.lambda_plus + dens.lambda_minus - 1.0) < 1e-12
        assert 0.0 <= dens.entropy <= math.log(2.0) + 1e-12
    assert propagate_cat(CatState(2.0), math.pi / 2, 0.0, 0.0).entropy == 0.0
    assert propagate_cat(CatState(2.0), 1.0, 1.0, 60.0).entropy == 0.0
    for alpha, g, kx in ((0.7, 0.8, 0.3), (2.0, 1.2, 0.15), (3.0, 1.0, 0.1)):
        closed = propagate_cat(CatState(alpha), g, 1.0, kx)
        rho = fock.cat_mode_after_transfer(alpha, 0.0, g, math.exp(-2.0 * kx))
        assert abs(closed.entropy - fock.vn_entropy(rho)) < 1e-6
    s2 = propagate_cat(CatState(2.0), 1.2, 1.0, 0.01).entropy
    s5 = propagate_cat(CatState(5.0), 1.2, 1.0, 0.01).entropy
    assert s5 > s2
    _report(9, "cat channel: trace and eigenvalue sums at 1e-12 over 100 draws; "
               "number-basis oracle within 1e-6; larger cats decohere faster")


def test_criterion_10_cli_determinism(tmp_path):
    jobs = [
        ["optimize", "--branch", "plus", "--omega-min", "3e15", "--omega-max", "4.5e15",
         "--omega-steps", "4", "--d1-min-nm", "20", "--d1-max-nm", "80", "--d1-steps", "3",
         "--d2-steps", "16"],
        ["propagate", "--branch", "both", "--omega-min", "3e15", "--omega-max", "4e15",
         "--omega-steps", "2", "--d1-min-nm", "20", "--d1-max-nm", "60", "--d1-steps", "2",
         "--d2-steps", "12", "--x-steps", "4"],
        ["dispersion", "--branch", "both", "--d1-nm", "20", "--k-steps", "25"],
    ]
    for job in jobs:
        outputs = []
        for workers in (1, 4, 16):
            out = tmp_path / f"{job[0]}_{workers}.csv"
            code = cli.run(job + ["--threads", str(workers), "--out", str(out)])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
    _report(10, "CLI datasets byte-identical across 1, 4 and 16 workers")
