import ast
import math
import re
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from lrspp import coupling, modes
from lrspp.coupling import (
    ConstraintSet,
    OptimizeConfig,
    best_over_d1,
    constraint_set,
    optimize_d2,
    overlap_beta,
)
from lrspp.dispersion import BranchId, coupling_angle, solve_k, solve_omega
from lrspp.errors import ConfigError, LrsppError, NoBoundMode, NoMatchingAngle, NormalizationError
from lrspp.materials import SILVER, surface_plasma_frequency
from lrspp.modes import four_layer_solve, lrspp_profile, overlap_integral, profile_norm

INF = math.inf


def beta_quadrature_oracle(branch, w, d1, d2, eps_prism=1.51, model=SILVER):
    """Adaptive-quadrature route to beta, independent of the closed-form
    piecewise integration."""
    sol = solve_k(branch, w, d1, model)
    theta = coupling_angle(w, sol.k, eps_prism)
    phi = lrspp_profile(sol)
    fl = four_layer_solve(w, theta, d1, d2, eps_prism, model)
    psi = fl.profile
    tail = d1 + 45.0 / min(sol.nu_0, fl.gamma_0.real)
    skin = 40.0 / sol.nu_m  # depth past which each metal face's field is gone
    edges = [-d2, 0.0] + ([skin, d1 - skin] if 2.0 * skin < d1 else []) + [d1, tail]

    def piece(f):
        return sum(quad(f, a, b, limit=400)[0] for a, b in zip(edges, edges[1:]))

    n1 = piece(lambda z: sum(abs(c) ** 2 for c in phi.at(z)))
    n2 = piece(lambda z: sum(abs(c) ** 2 for c in psi.at(z)))

    def integrand(z):
        (fx, fz), (gx, gz) = phi.at(z), psi.at(z)
        return fx.conjugate() * gx + fz.conjugate() * gz

    ov = complex(piece(lambda z: integrand(z).real), piece(lambda z: integrand(z).imag))
    return -(fl.tau * ov / math.sqrt(n1 * n2)).conjugate()


def beta_generic_oracle(sol, d2, eps_prism=1.51):
    """beta from the full four-layer solve at unit incidence and three
    piecewise closed-form integrals over [-d2, inf): independent of the gap
    algebra of the closed form in coupling."""
    theta = coupling_angle(sol.omega, sol.k, eps_prism)
    phi = lrspp_profile(sol)
    fl = four_layer_solve(sol.omega, theta, sol.d1, d2, eps_prism, sol.model)
    n1 = profile_norm(phi, -d2, INF)
    n2 = profile_norm(fl.profile, -d2, INF)
    overlap = overlap_integral(phi, fl.profile, -d2, INF) / math.sqrt(n1 * n2)
    return -(fl.tau * overlap).conjugate()


def beta_segment_integral_form(sol, theta, eps_prism):
    """The gap closure with every gap integral a modes._segment_integral
    call and the phase c/|c| taken from c, as beta_of_gap computed it
    before it wrote the real-rate integrals out: it must give the same
    bits, and the same errors."""
    phi = lrspp_profile(sol)
    stack = modes._upper_stack(sol.omega, theta, sol.d1, eps_prism, sol.model)
    psi = modes._upper_profile(stack, sol.d1, 1.0)
    n1_up = profile_norm(phi, 0.0, INF)
    n2_up = profile_norm(psi, 0.0, INF)
    o_up = overlap_integral(phi, psi, 0.0, INF)

    segment = modes._segment_integral
    nu0, g0, a1, k2 = sol.nu_0, stack.gamma_0, stack.a1, stack.k2
    k_nu, kx_g = sol.k / nu0, stack.kx / g0
    n1_w = 1.0 + k_nu * k_nu
    n2_w1 = (1.0 + kx_g * kx_g) * abs(a1) ** 2
    n2_w2 = (1.0 + kx_g * kx_g) * abs(k2) ** 2
    n2_cross_w = 2.0 * (1.0 - kx_g * kx_g) * (a1.conjugate() * k2).real
    o_w1 = (1.0 - k_nu * kx_g) * a1
    o_w2 = (1.0 + k_nu * kx_g) * k2
    slow, apart = min(nu0, g0), abs(nu0 - g0)

    def beta(d2):
        w0, c, _, _, tau = modes._prism_match(stack, d2)
        g0_int = segment(2.0 * g0, d2)
        n1 = n1_up + n1_w * segment(2.0 * nu0, d2)
        n2 = n2_w1 * g0_int + w0 * w0 * (n2_up + n2_w2 * g0_int + n2_cross_w * d2)
        mixed = math.exp(-slow * d2) * segment(apart, d2)
        overlap = o_w1 * mixed + w0 * (o_up + o_w2 * segment(nu0 + g0, d2))
        value = -(tau * (c / abs(c)) * overlap / math.sqrt(n1 * n2)).conjugate()
        if abs(value) > 1.0 + 1e-9:
            raise NormalizationError(
                f"|beta| = {abs(value):.12f} > 1 at omega={sol.omega:.6g}, d1={sol.d1:.4g}, d2={d2:.4g}"
            )
        return value

    return beta


def written_out_segment(rate, length):
    """The real-rate segment integral as beta_of_gap writes it out."""
    p = rate * length
    return -math.expm1(-p) / rate if p else length


def optimize_d2_full_scan(branch, omega, d1, config, model=SILVER):
    """optimize_d2 with beta evaluated at every point of the gap grid, a
    list built up front, before the same refine, fall-back and feasibility
    test: the search as it was before the scan stopped early, kept as the
    reference that the early stop must match bit for bit."""
    try:
        sol = solve_k(branch, omega, d1, model)
        theta = coupling_angle(sol.omega, sol.k, config.eps_prism)
    except (NoBoundMode, NoMatchingAngle):
        return None
    d2_lo = max(config.d2_min, 2.0 / sol.nu_0)
    d2_hi = config.d2_max
    if coupling._constraints(sol, INF, d2_hi).coupled_surfaces_C < 1.0 or d2_lo > d2_hi:
        return None
    if not coupling._bandwidth_at_least_one(sol, config.delta_omega):
        return None

    beta = modes.beta_of_gap(sol, theta, config.eps_prism)
    n = config.d2_steps
    ratio = d2_hi / d2_lo
    best_i, best_v, best_beta = 0, -1.0, None
    grid = [d2_lo * ratio ** (i / (n - 1)) for i in range(n)]
    if grid[-1] == INF:
        raise ConfigError(f"d2: the gap grid from {d2_lo!r} to {d2_hi!r} overflows")
    for i, d2 in enumerate(grid):
        v, z, _ = beta(d2)
        if v > best_v:
            best_i, best_v, best_beta = i, v, z

    golden = coupling._GOLDEN
    a = grid[max(best_i - 1, 0)]
    b = grid[min(best_i + 1, n - 1)]
    c = b - golden * (b - a)
    d = a + golden * (b - a)
    fc, fd = beta(c)[0], beta(d)[0]
    while b - a > coupling.D2_REFINE:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - golden * (b - a)
            fc = beta(c)[0]
        else:
            a, c, fc = c, d, fd
            d = a + golden * (b - a)
            fd = beta(d)[0]
    d2_best = 0.5 * a + 0.5 * b
    v_best, beta_best, _ = beta(d2_best)
    if v_best < best_v:
        d2_best, v_best, beta_best = grid[best_i], best_v, best_beta

    if not coupling._constraints(sol, INF, d2_best).feasible:
        return None
    g = math.asin(min(1.0, v_best))
    return SimpleNamespace(d2=d2_best, beta=beta_best, g_tilde=2.0 * g / math.pi)


def _bits(call, *args):
    """The float bits of call(*args), or its error's type and message."""
    try:
        z = complex(call(*args))
    except Exception as exc:
        return type(exc), str(exc)
    return z.real.hex(), z.imag.hex()


@settings(max_examples=1000, deadline=None)
@given(
    rate=st.floats(min_value=0.0, allow_infinity=False),
    length=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
)
@example(rate=0.0, length=1e-9)  # rate * length = 0 for a zero rate
@example(rate=1e-300, length=1e-300)  # ... and where the product underflows
@example(rate=1e-160, length=1e-160)  # a subnormal product
@example(rate=5e-324, length=1.0)
@example(rate=1e300, length=1e300)  # a product that overflows to inf
@example(rate=1e-300, length=1.7e308)
def test_written_out_segment_integral_is_the_segment_integral(rate, length):
    """Over the whole range of a real rate >= 0 and a positive finite
    length, the written-out form in beta_of_gap gives the bits of
    modes._segment_integral."""
    assert written_out_segment(rate, length).hex() == modes._segment_integral(rate, length).hex()


@settings(max_examples=300, deadline=None)
@given(
    branch=st.sampled_from((BranchId.ANTISYMMETRIC, BranchId.SYMMETRIC)),
    frac=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    d1=st.floats(min_value=math.log(1e-9), max_value=math.log(1e-3)).map(math.exp),
    d2=st.floats(min_value=math.log(1e-9), max_value=0.0).map(math.exp),
    eps_prism=st.floats(min_value=1.01, max_value=20.0),
)
def test_gap_closure_has_the_bits_of_the_segment_integral_form(branch, frac, d1, d2, eps_prism):
    """beta(d2) of beta_of_gap has the bits of beta_segment_integral_form at any
    bound-band frequency, strip from 1 nm to 1 mm, gap from 1 nm to 1 m
    and prism permittivity from 1.01 to 20; where one raises, the other
    raises the same error.  A frequency whose square underflows has no
    solution to build on (ValueError)."""
    omega = frac * surface_plasma_frequency(SILVER)
    try:
        sol = solve_k(branch, omega, d1, SILVER)
        theta = coupling_angle(omega, sol.k, eps_prism)
    except (NoBoundMode, NoMatchingAngle, ValueError):
        return

    def value(build):
        return build(sol, theta, eps_prism)(d2)

    def closure_beta(*args):  # the beta part of the closure's (|beta|, beta, ceiling)
        gap = modes.beta_of_gap(*args)
        return lambda d2: gap(d2)[1]

    assert _bits(value, closure_beta) == _bits(value, beta_segment_integral_form)


FEASIBLE_CASES = [
    (BranchId.ANTISYMMETRIC, 3.4e15, 30e-9, 900e-9),
    (BranchId.ANTISYMMETRIC, 4.0e15, 60e-9, 500e-9),
    (BranchId.ANTISYMMETRIC, 4.6e15, 45e-9, 350e-9),
    (BranchId.SYMMETRIC, 2.8e15, 25e-9, 800e-9),
    (BranchId.SYMMETRIC, 3.1e15, 40e-9, 650e-9),
    (BranchId.SYMMETRIC, 2.5e15, 55e-9, 1.2e-6),
]


#: A 10 um strip: with the four-layer amplitudes at unit top-air amplitude
#: the norm integral here was NaN.
THICK_STRIP_CASE = (BranchId.ANTISYMMETRIC, 2e15, 10e-6, 800e-9)


class TestOverlapBeta:
    def test_no_transmission_no_conversion(self):
        beta = overlap_beta(solve_k(BranchId.ANTISYMMETRIC, 4e15, 20e-9, SILVER), 5e-6)
        assert abs(beta) < 1e-3

    @pytest.mark.parametrize("branch,w,d1,d2", FEASIBLE_CASES + [THICK_STRIP_CASE])
    def test_against_quadrature_oracle(self, branch, w, d1, d2):
        closed = overlap_beta(solve_k(branch, w, d1, SILVER), d2)
        oracle = beta_quadrature_oracle(branch, w, d1, d2)
        assert abs(closed - oracle) / abs(oracle) < 1e-8

    def test_bounded_by_one(self):
        for branch, w, d1, d2 in FEASIBLE_CASES:
            assert abs(overlap_beta(solve_k(branch, w, d1, SILVER), d2)) <= 1.0 + 1e-9

    def test_beta_past_one_is_a_normalization_error(self, monkeypatch):
        """|beta| above 1 + 1e-9 means the norms are inconsistent: with tau
        doubled in the prism match, beta raises NormalizationError naming
        |beta| and the point instead of returning it."""
        branch, w, d1, d2 = FEASIBLE_CASES[1]
        sol = solve_k(branch, w, d1, SILVER)
        size = 2.0 * abs(overlap_beta(sol, d2))
        assert size > 1.0 + 1e-9
        prism_match = modes._prism_match

        def doubled_tau(*args):
            w0, c, phase, r, tau = prism_match(*args)
            return w0, c, phase, r, 2.0 * tau

        monkeypatch.setattr(modes, "_prism_match", doubled_tau)
        message = f"|beta| = {size:.12f} > 1 at omega={w:.6g}, d1={d1:.4g}, d2={d2:.4g}"
        with pytest.raises(NormalizationError, match=f"^{re.escape(message)}$"):
            overlap_beta(sol, d2)


class TestConstraintSet:
    def test_branch_separation_always_positive(self):
        for w, d1 in ((2.4e15, 15e-9), (3.2e15, 40e-9), (4.5e15, 25e-9)):
            cons = constraint_set(solve_k(BranchId.ANTISYMMETRIC, w, d1, SILVER), 600e-9)
            assert cons.bandwidth_B > 0.0

    def test_bandwidth_infinite_when_other_branch_absent(self):
        # at this point the matched wavevector sits where the antisymmetric
        # branch has left the bound band: simultaneous excitation impossible
        cons = constraint_set(solve_k(BranchId.SYMMETRIC, 4.2e15, 20e-9, SILVER), 600e-9)
        assert cons.bandwidth_B == INF
        assert cons.feasible

    def test_penetration_boundary_exact(self):
        sol = solve_k(BranchId.ANTISYMMETRIC, 4e15, 20e-9, SILVER)
        cons = constraint_set(sol, 2.0 / sol.nu_0)
        assert cons.penetration_P == 1.0

    def test_faces_decouple_at_large_thickness_low_frequency(self):
        cons = constraint_set(solve_k(BranchId.ANTISYMMETRIC, 2.2e15, 95e-9, SILVER), 600e-9)
        assert cons.coupled_surfaces_C < 1.0
        assert not cons.feasible

    def test_feasibility_rule(self):
        assert ConstraintSet(1.0, 1.0, 1.0).feasible
        assert not ConstraintSet(0.99, 1.0, 1.0).feasible
        assert not ConstraintSet(1.0, 1.01, 1.0).feasible
        assert not ConstraintSet(1.0, 1.0, 0.99).feasible

    def test_delta_omega_validation(self):
        with pytest.raises(ValueError):
            constraint_set(solve_k(BranchId.ANTISYMMETRIC, 4e15, 20e-9, SILVER), 600e-9, delta_omega=0.0)


@pytest.mark.parametrize("bad", [math.nan, 0.0, -0.0, -50e-9], ids=["nan", "zero", "negative-zero", "negative"])
def test_gap_and_bandwidth_must_be_positive(bad):
    """The public entry points name a bad gap or bandwidth instead of
    dividing by zero, returning NaN or reporting a degenerate system."""
    sol = solve_k(BranchId.ANTISYMMETRIC, 4e15, 40e-9, SILVER)
    for call in (overlap_beta, constraint_set):
        with pytest.raises(ValueError, match=f"^d2 must be positive, got {bad!r}$"):
            call(sol, bad)
    with pytest.raises(ValueError, match=f"^delta_omega must be positive, got {bad!r}$"):
        constraint_set(sol, 600e-9, delta_omega=bad)
    for call in (overlap_beta, constraint_set):
        with pytest.raises(ValueError, match="^d2 must be finite, got inf$"):
            call(sol, INF)
    with pytest.raises(ValueError, match="^delta_omega must be finite, got inf$"):
        constraint_set(sol, 600e-9, delta_omega=INF)


def test_bandwidth_near_the_float_limit_does_not_underflow():
    """B = 0.5 gap / delta_omega: at delta_omega = 1e308, where 2 delta_omega
    overflows, B is the tiny positive quotient, 1.25 times smaller than at
    8e307, not 0.  Below the limit it keeps the bits of gap / (2 delta_omega).
    The gate reads the overflowed threshold as the tiny B does: B < 1."""
    sol = solve_k(BranchId.ANTISYMMETRIC, 4e15, 20e-9, SILVER)
    gap = sol.omega - solve_omega(BranchId.SYMMETRIC, sol.k, sol.d1, SILVER).omega
    near, at = (constraint_set(sol, 500e-9, delta_omega=dw).bandwidth_B for dw in (8e307, 1e308))
    assert near == gap / (2.0 * 8e307) and 0.0 < at == 0.5 * gap / 1e308
    assert at == pytest.approx(near / 1.25, rel=1e-15)
    assert constraint_set(sol, 500e-9).bandwidth_B == gap / (2.0 * coupling.DEFAULT_DELTA_OMEGA)
    for branch in BranchId:
        sol = solve_k(branch, 4e15, 20e-9, SILVER)
        assert coupling._bandwidth_at_least_one(sol, 1e308) is False


def count_calls(monkeypatch, module, name) -> list:
    """Record the arguments of every call of module.name from here on."""
    calls, fn = [], getattr(module, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


@settings(max_examples=300, deadline=None)
@given(
    branch=st.sampled_from((BranchId.ANTISYMMETRIC, BranchId.SYMMETRIC)),
    frac=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    d1=st.floats(min_value=math.log(1e-9), max_value=math.log(1e-3)).map(math.exp),
    delta_omega=st.floats(min_value=math.log(1e9), max_value=math.log(1e16)).map(math.exp),
    near=st.one_of(st.none(), st.floats(min_value=-2.0, max_value=2.0)),
)
def test_gate_decides_as_the_full_bandwidth(branch, frac, d1, delta_omega, near):
    """_bandwidth_at_least_one answers B >= 1 as _bandwidth does, over the
    whole band, strips of 1 nm to 1 mm and bandwidths of 1e9 to 1e16
    rad/s.  With near, delta_omega is half the branch separation moved by
    near times the gate's margin, so the bisection's bracket closes within
    the margin and the gate falls back to the full root."""
    try:
        sol = solve_k(branch, frac * surface_plasma_frequency(SILVER), d1, SILVER)
    except (LrsppError, ValueError):
        return
    if near is not None:
        b = coupling._bandwidth(sol, 1.0)  # the separation over 2
        if not 0.0 < b < INF:
            return
        delta_omega = b + 0.5 * near * coupling.GATE_MARGIN * sol.omega
        if not delta_omega > 0.0:  # a separation inside the margin
            return
    assert coupling._bandwidth_at_least_one(sol, delta_omega) == (
        coupling._bandwidth(sol, delta_omega) >= 1.0)


@pytest.mark.parametrize("at_the_threshold", [False, True], ids=["decided", "falls-back"])
def test_gate_solves_the_root_only_within_its_margin(monkeypatch, at_the_threshold):
    """With the default bandwidth the bracket decides B >= 1 and no root of
    the other branch is solved.  With delta_omega at half the branch
    separation the other root sits on the threshold, the bracket closes
    inside the margin, and the gate takes the one full root of _bandwidth."""
    sol = solve_k(BranchId.ANTISYMMETRIC, 4e15, 20e-9, SILVER)
    delta_omega = coupling._bandwidth(sol, 1.0) if at_the_threshold else coupling.DEFAULT_DELTA_OMEGA
    expected = coupling._bandwidth(sol, delta_omega) >= 1.0
    solved = count_calls(monkeypatch, coupling, "solve_omega")
    assert coupling._bandwidth_at_least_one(sol, delta_omega) == expected
    assert len(solved) == int(at_the_threshold)


@pytest.mark.parametrize(
    "field, bad",
    [("d2_min", v) for v in (math.nan, INF, -INF, 0.0, -50e-9)]
    + [("d2_max", v) for v in (math.nan, INF, -INF, 50e-9, 10e-9)]
    + [("d2_steps", v) for v in (-3, 0, 1, 2.5, True)]
    + [("delta_omega", v) for v in (math.nan, INF, -INF, 0.0, -3.02e13)]
    + [("eps_prism", v) for v in (math.nan, INF, -INF, 1.0, 0.5)],
)
def test_optimize_config_names_a_bad_field(field, bad):
    """NaN, an infinity or a value out of range in any OptimizeConfig field is
    a ValueError naming that field, before any solve can run on it."""
    with pytest.raises(ValueError, match=f"^{field} .*, got {bad!r}$"):
        OptimizeConfig(**{field: bad})


class TestCouplingPoint:
    def test_mixing_angle_identity(self):
        pt = optimize_d2(BranchId.ANTISYMMETRIC, 4e15, 60e-9)
        alpha_sq = 1.0 - abs(pt.beta) ** 2
        assert abs(alpha_sq + abs(pt.beta) ** 2 - 1.0) < 1e-12
        assert pt.g == pytest.approx(math.asin(abs(pt.beta)))
        assert pt.g_tilde == pytest.approx(2.0 * pt.g / math.pi)
        assert 0.0 <= pt.g_tilde <= 1.0


class TestOptimizeD2:
    def test_result_is_feasible_and_locally_optimal(self):
        pt = optimize_d2(BranchId.ANTISYMMETRIC, 4e15, 60e-9)
        assert pt is not None and pt.constraints.feasible
        step = 1e-9
        sol = solve_k(BranchId.ANTISYMMETRIC, 4e15, 60e-9, SILVER)
        for d2 in (pt.d2 - step, pt.d2 + step):
            assert abs(overlap_beta(sol, d2)) <= abs(pt.beta) + 1e-12

    def test_constraints_are_solved_on_first_read(self, monkeypatch):
        """The search decides B >= 1 without the other branch's root; the
        point's constraints solve it once, on first read, and are kept."""
        solved = count_calls(monkeypatch, coupling, "solve_omega")
        pt = optimize_d2(BranchId.ANTISYMMETRIC, 4e15, 60e-9)
        assert pt is not None and solved == [] and "constraints" not in vars(pt)
        assert pt.constraints is pt.constraints and len(solved) == 1
        assert pt.constraints == constraint_set(solve_k(BranchId.ANTISYMMETRIC, 4e15, 60e-9, SILVER), pt.d2)
        assert (pt.delta_omega, pt.solution.model) == (coupling.DEFAULT_DELTA_OMEGA, SILVER)

    def test_subtracted_region_returns_none(self):
        assert optimize_d2(BranchId.SYMMETRIC, 5e15, 15e-9) is None

    def test_violated_constraints_return_none(self):
        assert optimize_d2(BranchId.ANTISYMMETRIC, 2.2e15, 95e-9) is None

    @pytest.mark.parametrize(
        "d1,config,c_below_1",
        [(300e-9, OptimizeConfig(), True), (60e-9, OptimizeConfig(d2_min=50e-9, d2_max=60e-9), False)],
        ids=["C-below-1", "empty-gap-window"],
    )
    def test_ruled_out_before_the_other_branch_is_solved(self, monkeypatch, d1, config, c_below_1):
        """C < 1 (a 300 nm strip) or an empty gap window (P > 1 at d2_max)
        rules a cell out before B >= 1 is decided or solved."""
        cons = constraint_set(solve_k(BranchId.ANTISYMMETRIC, 4e15, d1, SILVER), config.d2_max)
        assert (cons.coupled_surfaces_C < 1.0, cons.penetration_P > 1.0) == (c_below_1, not c_below_1)
        solved = []

        def solve_omega(*args):
            solved.append(args)
            raise NoBoundMode("B = inf")

        monkeypatch.setattr(coupling, "solve_omega", solve_omega)
        gated = count_calls(monkeypatch, coupling, "_bandwidth_at_least_one")
        assert optimize_d2(BranchId.ANTISYMMETRIC, 4e15, d1, config) is None
        assert solved == [] and gated == []

    @pytest.mark.parametrize(
        "branch,w,d1", [(BranchId.ANTISYMMETRIC, 4e15, 60e-9), (BranchId.SYMMETRIC, 3.1e15, 40e-9)]
    )
    def test_reported_point_matches_the_explicit_gap_calls(self, branch, w, d1):
        """The optimum's beta and (B, P, C) are those of overlap_beta and
        constraint_set at its gap, bit for bit, and g is arcsin|beta|."""
        pt = optimize_d2(branch, w, d1)
        assert pt is not None
        sol = solve_k(branch, w, d1, SILVER)
        beta = overlap_beta(sol, pt.d2)
        assert (pt.beta.real.hex(), pt.beta.imag.hex()) == (beta.real.hex(), beta.imag.hex())
        assert pt.constraints == constraint_set(sol, pt.d2)
        assert (pt.solution.omega, pt.solution.d1, pt.g) == (w, d1, math.asin(abs(beta)))
        assert pt.g_tilde == 2.0 * pt.g / math.pi

    @pytest.mark.parametrize(
        "branch,w,d1,steps,falls_back",
        [
            (BranchId.ANTISYMMETRIC, 4e15, 60e-9, 2, False),
            (BranchId.ANTISYMMETRIC, 4e15, 60e-9, 80, False),
            (BranchId.SYMMETRIC, 3.1e15, 40e-9, 80, True),
        ],
        ids=["two-steps", "refined", "grid-point"],
    )
    def test_scan_takes_the_steps_given(self, monkeypatch, branch, w, d1, steps, falls_back):
        """The gap search evaluates beta once per point of a prefix grid[:m]
        of the gap grid, once per golden point and once at the refined
        midpoint, and no more: where the midpoint is worse than the best
        grid point, that point's beta is the scan's.  The scan stops at the
        first point whose ceiling is below the best
        |beta| so far, and every grid point after it, evaluated here, is
        below the scan's best.  With d2_steps=2 the grid is the two ends of
        the gap window, and the third evaluation is the first golden point
        of the refine over the whole window."""
        calls = []
        beta_of_gap = modes.beta_of_gap

        def counted(*args):
            beta = beta_of_gap(*args)

            def value(d2):
                size, z, ceiling = beta(d2)
                calls.append((d2, size, ceiling))
                return size, z, ceiling

            return value

        monkeypatch.setattr(modes, "beta_of_gap", counted)
        config = OptimizeConfig(d2_steps=steps)
        pt = optimize_d2(branch, w, d1, config)
        assert pt is not None
        gaps, values = [d2 for d2, _, _ in calls], [v for _, v, _ in calls]
        lo = gaps[0]
        grid = [lo * (config.d2_max / lo) ** (i / (steps - 1)) for i in range(steps)]
        # The scan, replayed on the values recorded for it.
        best, m = 0, steps
        for i in range(1, steps):
            if values[i] > values[best]:  # the first of equal maxima
                best = i
            elif calls[i][2] < values[best]:
                m = i + 1
                break
        # The golden-section refine, replayed on the values recorded for it.
        golden = coupling._GOLDEN
        a, b = grid[max(best - 1, 0)], grid[min(best + 1, steps - 1)]
        c, d = b - golden * (b - a), a + golden * (b - a)
        refine = [c, d]
        fc, fd = values[m], values[m + 1]
        while b - a > coupling.D2_REFINE:
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - golden * (b - a)
                refine.append(c)
                fc = values[m + len(refine) - 1]
            else:
                a, c, fc = c, d, fd
                d = a + golden * (b - a)
                refine.append(d)
                fd = values[m + len(refine) - 1]
        midpoint = 0.5 * a + 0.5 * b
        assert gaps == grid[:m] + refine + [midpoint]
        assert (m < steps) == (steps > 2)  # the 80-point scans stop early
        tail = beta_of_gap(pt.solution, pt.theta, config.eps_prism)
        assert all(tail(d2)[0] < values[best] for d2 in grid[m:])
        assert (values[-1] < values[best]) == falls_back
        assert pt.d2 == (grid[best] if falls_back else midpoint)

    def test_gap_respects_penetration_bound(self):
        pt = optimize_d2(BranchId.ANTISYMMETRIC, 4.8e15, 30e-9)
        assert pt is not None
        assert pt.constraints.penetration_P <= 1.0 + 1e-12

    def test_a_long_gap_grid_is_not_built(self):
        """The gap grid is computed one point at a time: a search over 10**7
        points allocates no list of them (10**7 floats and their list take
        about 320 MB).  Over a window up to 1 m the scan stops near point
        18,000 here (near 156,000 up to the default 3 um)."""
        tracemalloc.start()
        try:
            pt = optimize_d2(BranchId.SYMMETRIC, 3.1e15, 40e-9, OptimizeConfig(d2_max=1.0, d2_steps=10**7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pt is not None and peak < 1_000_000


def _search_outcome(search, branch, omega, d1, config):
    """(d2, beta, g_tilde) as hex of a search's point, None, or the type
    and message of the error it raised."""
    try:
        pt = search(branch, omega, d1, config)
    except (LrsppError, ValueError) as exc:
        return type(exc), str(exc)
    if pt is None:
        return None
    return pt.d2.hex(), pt.beta.real.hex(), pt.beta.imag.hex(), pt.g_tilde.hex()


@settings(max_examples=1000, deadline=None)
@given(
    branch=st.sampled_from((BranchId.ANTISYMMETRIC, BranchId.SYMMETRIC)),
    frac=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    d1=st.floats(min_value=math.log(1e-9), max_value=math.log(1e-3)).map(math.exp),
    d2_min=st.floats(min_value=math.log(1e-9), max_value=math.log(1e-6)).map(math.exp),
    log_ratio=st.floats(min_value=1e-3, max_value=8.0),
    d2_steps=st.integers(min_value=2, max_value=200),
    eps_prism=st.floats(min_value=1.01, max_value=20.0),
    delta_omega=st.floats(min_value=math.log(1e9), max_value=math.log(1e15)).map(math.exp),
)
# Two cells of test_scan_takes_the_steps_given at the default gap grid
# (omega_sp of silver is about 5.5088e15 rad/s).
@example(BranchId.ANTISYMMETRIC, 4e15 / 5.5088e15, 60e-9, 50e-9, math.log(60.0), 80, 1.51, 3.02e13)
@example(BranchId.SYMMETRIC, 3.1e15 / 5.5088e15, 40e-9, 50e-9, math.log(60.0), 80, 1.51, 3.02e13)
def test_early_stop_matches_the_full_scan(branch, frac, d1, d2_min, log_ratio, d2_steps, eps_prism, delta_omega):
    """optimize_d2, whose scan stops once no later gap can win, gives the
    full scan's d2, beta and g_tilde bit for bit, or raises the same error,
    over the whole band, strips of 1 nm to 1 mm, gap windows from 1 nm to
    1 um and up to e^8 wide, 2 to 200 grid points, prism permittivities of
    1.01 to 20 and bandwidths of 1e9 to 1e15 rad/s."""
    omega = frac * surface_plasma_frequency(SILVER)
    config = OptimizeConfig(d2_min=d2_min, d2_max=d2_min * math.exp(log_ratio), d2_steps=d2_steps,
                            delta_omega=delta_omega, eps_prism=eps_prism)
    assert _search_outcome(optimize_d2, branch, omega, d1, config) == _search_outcome(
        optimize_d2_full_scan, branch, omega, d1, config)


@settings(max_examples=300, deadline=None)
@given(
    branch=st.sampled_from((BranchId.ANTISYMMETRIC, BranchId.SYMMETRIC)),
    frac=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    d1=st.floats(min_value=math.log(1e-9), max_value=math.log(1e-3)).map(math.exp),
    eps_prism=st.floats(min_value=1.01, max_value=20.0),
    start=st.floats(min_value=-10.0, max_value=40.0),
    later=st.lists(st.floats(min_value=0.0, max_value=60.0), min_size=1, max_size=16),
)
def test_ceiling_bounds_every_larger_gap(branch, frac, d1, eps_prism, start, later):
    """For every d2' >= d2, |beta(d2')| <= ceiling(d2), over
    the whole band, strips of 1 nm to 1 mm and prism permittivities of 1.01
    to 20.  The gaps are drawn around critical coupling d2* =
    ln|k2/a1| / (2 gamma_0), in units of 1 / (2 gamma_0): d2 from 10 units
    before d2* (or 0) to 40 after, each d2' up to 60 units past d2."""
    omega = frac * surface_plasma_frequency(SILVER)
    try:
        sol = solve_k(branch, omega, d1, SILVER)
        theta = coupling_angle(omega, sol.k, eps_prism)
        stack = modes._upper_stack(omega, theta, d1, eps_prism, SILVER)
        beta = modes.beta_of_gap(sol, theta, eps_prism)
    except (LrsppError, ValueError):
        return
    unit = 0.5 / stack.gamma_0
    d2_star = math.log(abs(stack.k2) / abs(stack.a1)) * unit
    d2 = max(d2_star, 0.0) + start * unit
    if not 0.0 < d2 < INF:
        return
    try:
        ceiling = beta(d2)[2]
        sizes = [beta(d2 + t * unit)[0] for t in later]
    except LrsppError:
        return
    assert all(size <= ceiling for size in sizes)


@settings(max_examples=200, deadline=None)
@given(
    branch=st.sampled_from((BranchId.ANTISYMMETRIC, BranchId.SYMMETRIC)),
    frac=st.floats(min_value=1e-3, max_value=1.0, exclude_min=True, exclude_max=True),
    d1=st.floats(min_value=math.log(5e-9), max_value=math.log(1e-3)).map(math.exp),
    gap=st.floats(min_value=0.0, max_value=1.0),
)
def test_gap_objective_matches_beta(branch, frac, d1, gap):
    """The closed-form beta(d2) of modes, phase included, is the beta of
    the generic four-layer route at any bound-band frequency, strip from 5
    nm to 1 mm and gap from the penetration bound 2/nu_0 to 1 m.  Past
    gamma_0 d2 ~ 708 the gap factor exp(-gamma_0 d2) is subnormal, and both
    routes lose digits below the smallest normal float: differences under
    it are allowed."""
    omega = frac * surface_plasma_frequency(SILVER)
    try:
        sol = solve_k(branch, omega, d1, SILVER)
        d2_lo = 2.0 / sol.nu_0
        if d2_lo > 1.0:
            return
        d2 = d2_lo * (1.0 / d2_lo) ** gap
        theta = coupling_angle(omega, sol.k, 1.51)
        beta = modes.beta_of_gap(sol, theta, 1.51)(d2)[1]
    except LrsppError:
        return
    oracle = beta_generic_oracle(sol, d2)
    assert abs(beta - oracle) <= 1e-12 * abs(oracle) + sys.float_info.min
    assert abs(beta) <= 1.0


class TestOptimizePath:
    _CFG = OptimizeConfig(d2_steps=24)
    _OMEGAS = [3.2e15, 3.8e15, 4.4e15]
    _D1S = [20e-9, 40e-9, 60e-9]

    def test_records_feasible_and_bounded(self):
        points = [best_over_d1(BranchId.ANTISYMMETRIC, w, self._D1S, self._CFG, SILVER) for w in self._OMEGAS]
        assert len(points) == len(self._OMEGAS)
        for w, pt in zip(self._OMEGAS, points):
            assert pt is not None
            assert pt.constraints.feasible
            assert 0.0 <= pt.g_tilde <= 1.0
            # independent re-evaluation of the emitted point
            cons = constraint_set(solve_k(pt.solution.branch, w, pt.solution.d1, SILVER), pt.d2)
            assert cons.feasible

    @pytest.mark.parametrize(
        "thinner, best_d1",
        [(0.5 + 5e-10, 30e-9), (0.5, 30e-9), (0.5 - 5e-10, 30e-9), (0.5 - 2e-9, 60e-9), (0.5 + 2e-9, 30e-9)],
    )
    def test_equal_coupling_prefers_the_thinner_strip(self, monkeypatch, thinner, best_d1):
        """Two strips whose |beta| lie within 1e-9 of each other couple
        equally, and the thinner one wins even when it comes second and
        couples a little less; outside 1e-9 the larger |beta| wins."""
        beta = {60e-9: 0.5, 30e-9: thinner}

        def stub(branch, omega, d1, config, model):
            return SimpleNamespace(solution=SimpleNamespace(d1=d1), beta=complex(0.0, beta[d1]), constraints=None)

        monkeypatch.setattr(coupling, "optimize_d2", stub)
        pt = best_over_d1(BranchId.ANTISYMMETRIC, 4e15, [60e-9, 30e-9], self._CFG, SILVER)
        assert pt.solution.d1 == best_d1

    def test_best_path_shape(self):
        """Above the coupling peak the optimal strip thins toward higher
        frequency, and the optimal gap shrinks across the band."""
        omegas = [3.0e15 + i * (5.2e15 - 3.0e15) / 7 for i in range(8)]
        d1s = [10e-9 + i * 90e-9 / 11 for i in range(12)]
        cfg = OptimizeConfig(d2_steps=32)
        points = [best_over_d1(BranchId.ANTISYMMETRIC, w, d1s, cfg, SILVER) for w in omegas]
        pts = [pt for pt in points if pt is not None]
        assert len(pts) >= 6
        peak = max(range(len(pts)), key=lambda i: pts[i].g_tilde)
        upper_d1 = [p.solution.d1 for p in pts[peak:]]
        assert all(a >= b for a, b in zip(upper_d1, upper_d1[1:]))
        assert pts[0].d2 > pts[-1].d2


def private_modes_names(source: str) -> list[str]:
    """The underscore names of lrspp.modes that a module's source imports
    or reads as attributes of the modes module, under any alias."""
    tree = ast.parse(source)
    aliases, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            from_modes = node.module == "lrspp.modes" or (node.level and node.module == "modes")
            from_package = node.module == "lrspp" or (node.level and node.module is None)
            for alias in node.names:
                if from_modes and alias.name.startswith("_"):
                    found.append(alias.name)
                if from_package and alias.name == "modes":
                    aliases.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "lrspp.modes" and alias.asname:
                    aliases.add(alias.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            base = node.value
            if isinstance(base, ast.Name) and base.id in aliases:
                found.append(node.attr)
            elif ast.unparse(base) == "lrspp.modes":
                found.append(node.attr)
    return found


@pytest.mark.parametrize(
    "source, names",
    [
        ("from . import modes\nmodes._upper_stack(1)\nmodes.beta_of_gap(1)", ["_upper_stack"]),
        ("from .modes import _prism_match, beta_of_gap", ["_prism_match"]),
        ("from lrspp import modes as m\nx = m._upper_profile", ["_upper_profile"]),
        ("import lrspp.modes\nlrspp.modes._prism_match", ["_prism_match"]),
        ("from .dispersion import _window_root\nfrom . import modes\nmodes.beta_of_gap", []),
    ],
)
def test_private_modes_names_finds_each_use(source, names):
    assert private_modes_names(source) == names


def test_coupling_uses_only_public_modes_names():
    """The stack, its prism match and the beta closure are modes' own:
    coupling reaches them only through public names."""
    path = Path(coupling.__file__)
    assert private_modes_names(path.read_text(encoding="utf-8")) == []
