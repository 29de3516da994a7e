import cmath
import contextlib
import dataclasses
import hashlib
import math
import random
import sys

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from lrspp import dispersion
from lrspp.constants import C_LIGHT
from lrspp.dispersion import (
    BranchId,
    complex_wavenumber,
    coupling_angle,
    group_velocity,
    solve_k,
    solve_omega,
)
from lrspp.errors import ConvergenceError, LrsppError, NoBoundMode, NoMatchingAngle
from lrspp.materials import DielectricModel, SILVER, eps_lossless, eps_lossy, surface_plasma_frequency


BRANCHES = (BranchId.ANTISYMMETRIC, BranchId.SYMMETRIC)
W_SP = surface_plasma_frequency(SILVER)


def single_interface_omega(k: float, model=SILVER) -> float:
    """Independent oracle: invert k = (w/c) sqrt(em/(em+1)) by bisection."""

    def resid(w: float) -> float:
        em = eps_lossless(model, w)
        return (w / C_LIGHT) * math.sqrt(em / (em + 1.0)) - k

    lo, hi = 1e13, 5.508e15
    assert resid(lo) < 0 < resid(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if resid(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_residual_and_ordering_on_k_grid():
    d1 = 20e-9
    for i in range(50):
        k = 2e6 + i * (1.8e7 - 2e6) / 49
        plus = solve_omega(BranchId.ANTISYMMETRIC, k, d1, SILVER)
        minus = solve_omega(BranchId.SYMMETRIC, k, d1, SILVER)
        assert plus.relative_residual() < 1e-10
        assert minus.relative_residual() < 1e-10
        assert plus.omega > minus.omega


@pytest.mark.parametrize(
    "change",
    [
        lambda sol: {"k": 0.5 * sol.omega / C_LIGHT},  # below the light line: nu_0 is not real
        lambda sol: {"branch": sol.branch.other},  # the other branch's sign: lhs < 0
        lambda sol: {"omega": 1.1 * W_SP},  # above omega_sp: rhs < 0
    ],
    ids=["light-line", "other-branch", "above-omega-sp"],
)
def test_residual_off_the_bound_mode_domain_is_inf(change):
    """Where the dispersion equation has no bound-mode form, the residual
    of a point is inf, not an error."""
    sol = solve_k(BranchId.ANTISYMMETRIC, 4e15, 30e-9, SILVER)
    assert sol.relative_residual() < 1e-10
    assert dataclasses.replace(sol, **change(sol)).relative_residual() == math.inf


def test_round_trip_solve_omega_solve_k():
    d1 = 20e-9
    for branch in BRANCHES:
        for w in (2.5e15, 3.5e15, 4.5e15):
            try:
                sol = solve_k(branch, w, d1, SILVER)
            except NoBoundMode:
                continue
            back = solve_omega(branch, sol.k, d1, SILVER)
            assert back.omega == pytest.approx(w, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    w=st.floats(min_value=2.2e15, max_value=5.0e15),
    d1=st.floats(min_value=12e-9, max_value=90e-9),
    branch=st.sampled_from(BRANCHES),
)
def test_round_trip_property(w, d1, branch):
    try:
        sol = solve_k(branch, w, d1, SILVER)
    except NoBoundMode:
        return
    back = solve_omega(branch, sol.k, d1, SILVER)
    assert back.omega == pytest.approx(w, rel=1e-9)
    assert sol.relative_residual() < 1e-10
    assert sol.nu_0 > 0.0 and sol.nu_m > 0.0


@settings(max_examples=300, deadline=None)
@given(
    branch=st.sampled_from(BRANCHES),
    d1=st.floats(min_value=math.log(1e-9), max_value=math.log(50e-6)).map(math.exp),
    frac=st.floats(min_value=1e-3, max_value=1.0, exclude_min=True, exclude_max=True),
)
def test_solvers_over_whole_ranges(branch, d1, frac):
    """Any strip from 1 nm to 50 um, any frequency in the bound band: solve_k
    raises nothing but NoBoundMode and solve_omega inverts it.  solve_omega
    searches only below OMEGA_WINDOW_TOP w_sp, so the round trip is checked there.
    The relative residual is checked up to nu_m d1 = 10: beyond about 13 it
    cannot be resolved in double precision.  It is also checked only from
    2e15 rad/s: at lower frequencies it reaches 1e-6."""
    omega = frac * W_SP
    try:
        sol = solve_k(branch, omega, d1, SILVER)
    except NoBoundMode:
        return
    if omega < dispersion.OMEGA_WINDOW_TOP * W_SP:
        back = solve_omega(branch, sol.k, d1, SILVER)
        assert back.omega == pytest.approx(omega, rel=1e-9)
    if sol.nu_m * d1 <= 10.0 and omega >= 2e15:
        assert sol.relative_residual() < 1e-10


def test_symmetric_branch_unreachable_at_high_frequency_thin_strip(w_sp):
    with pytest.raises(NoBoundMode):
        solve_k(BranchId.SYMMETRIC, 0.95 * w_sp, 15e-9, SILVER)


def test_limit_frequency_at_large_k(w_sp):
    k = 50.0 * w_sp / C_LIGHT
    for branch in BRANCHES:
        sol = solve_omega(branch, k, 20e-9, SILVER)
        assert sol.omega == pytest.approx(w_sp, rel=0.01)


def test_single_interface_merge_omega_space():
    d1 = 100e-9
    for w in (3e15, 3.7e15, 4.4e15, 5e15):
        em = eps_lossless(SILVER, w)
        k_si = (w / C_LIGHT) * math.sqrt(em / (em + 1.0))
        for branch in BRANCHES:
            sol = solve_omega(branch, k_si, d1, SILVER)
            assert sol.omega == pytest.approx(w, rel=0.01)


def test_single_interface_merge_k_space_midband():
    # In k the merger is tightest mid-band; near the flat-band region the
    # comparison is done in omega instead (previous test).
    d1 = 100e-9
    for w in (3e15, 3.5e15, 4e15, 4.5e15):
        em = eps_lossless(SILVER, w)
        k_si = (w / C_LIGHT) * math.sqrt(em / (em + 1.0))
        for branch in BRANCHES:
            sol = solve_k(branch, w, d1, SILVER)
            assert sol.k == pytest.approx(k_si, rel=0.01)


def test_single_interface_oracle_consistency():
    # the bisection oracle inverts the analytic relation
    w = 4e15
    em = eps_lossless(SILVER, w)
    k_si = (w / C_LIGHT) * math.sqrt(em / (em + 1.0))
    assert single_interface_omega(k_si) == pytest.approx(w, rel=1e-10)


def test_antisymmetric_merges_to_single_interface_oracle():
    d1 = 100e-9
    k = 1.4e7
    w_oracle = single_interface_omega(k)
    sol = solve_omega(BranchId.ANTISYMMETRIC, k, d1, SILVER)
    assert sol.omega == pytest.approx(w_oracle, rel=0.01)


def test_branch_separation_decreases_with_thickness():
    k = 1.2e7
    prev_gap = None
    for d1 in (15e-9, 25e-9, 40e-9, 70e-9, 100e-9):
        plus = solve_omega(BranchId.ANTISYMMETRIC, k, d1, SILVER)
        minus = solve_omega(BranchId.SYMMETRIC, k, d1, SILVER)
        gap = plus.omega - minus.omega
        assert gap > 0.0
        if prev_gap is not None:
            assert gap < prev_gap
        prev_gap = gap


def test_solve_omega_at_k_whose_root_cubed_underflows():
    """At k ~ 2e-144 rad/m the symmetric root is omega ~ 1e-138, whose cube
    underflows to 0 and where wp^2/omega^2 overflows: the Newton polish
    stops on the infinite slope with no ZeroDivisionError, and the point,
    with eps_m = -inf and nu_m = inf, is NoBoundMode rather than a
    solution no later step can use."""
    k = 3.0 * 3.5495693508369385e-152 * W_SP / C_LIGHT
    with pytest.raises(NoBoundMode, match="omega=1.04566e-138 rad/s: eps_m overflows$"):
        solve_omega(BranchId.SYMMETRIC, k, math.exp(-7.0), SILVER)


@settings(max_examples=300, deadline=None)
@given(
    branch=st.sampled_from(BRANCHES),
    k=st.floats(min_value=math.log(5e-324), max_value=math.log(1e-150)).map(math.exp),
    d1=st.floats(min_value=math.log(1e-9), max_value=math.log(100e-6)).map(math.exp),
)
def test_solve_omega_at_tiny_k_is_no_bound_mode(branch, k, d1):
    """Below k ~ 1e-167 rad/m omega^2 underflows to 0 in solve_omega's
    window, where eps_m cannot be evaluated; from there up to 1e-150 no
    bound mode is found either.  NoBoundMode throughout, never ValueError."""
    with pytest.raises(NoBoundMode):
        solve_omega(branch, k, d1, SILVER)


def test_solver_input_validation():
    with pytest.raises(ValueError):
        solve_omega(BranchId.SYMMETRIC, -1.0, 20e-9, SILVER)
    with pytest.raises(ValueError):
        solve_omega(BranchId.SYMMETRIC, 1e7, -20e-9, SILVER)
    with pytest.raises(NoBoundMode):
        solve_k(BranchId.SYMMETRIC, 6e15, 20e-9, SILVER)  # above the band


def former_poly_residual(sign: int, kk: float, woc2: float, em: float, d1: float) -> float:
    """H from kk = k^2, woc2 = (w/c)^2 and em = eps_m(w), as the solvers
    computed it per point before dispersion._window_root: +inf outside the
    bound-mode domain."""
    n02 = kk - woc2
    nm2 = kk - em * woc2
    if n02 <= 0.0 or nm2 <= 0.0:
        return math.inf
    nu_m, nu_0 = math.sqrt(nm2), math.sqrt(n02)
    u = math.exp(-nu_m * d1)
    return u * (nu_m - em * nu_0) - sign * (nu_m + em * nu_0)


def residual_from_scratch(sign: int, k: float, omega: float, d1: float, model) -> float:
    """Oracle: H with eps_m, (w/c)^2 and k^2 computed afresh on every call."""
    return former_poly_residual(sign, k * k, (omega / C_LIGHT) ** 2, eps_lossless(model, omega), d1)


def former_residual(sign: int, k, omega, d1: float, model):
    """The former closure of solve_omega (omega None) or solve_k (k None):
    H along the unknown, with the terms fixed along it computed once."""
    if omega is None:
        kk = k * k
        return lambda w: former_poly_residual(sign, kk, (w / C_LIGHT) ** 2, eps_lossless(model, w), d1)
    em = eps_lossless(model, omega)
    woc2 = (omega / C_LIGHT) ** 2
    return lambda x: former_poly_residual(sign, x * x, woc2, em, d1)


def bisection_end_point(f, lo: float, hi: float) -> float | None:
    """Oracle of dispersion._window_root: the former bracket test of _solve
    and the former _bisect, calling f once per point."""
    flo = f(lo)
    if flo != 0.0 and (flo < 0.0) == (f(hi) < 0.0):
        return None
    if flo == 0.0:
        return lo
    for _ in range(dispersion.BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
        if hi - lo <= dispersion.BISECT_REL_TOL * abs(hi):
            break
    return 0.5 * (lo + hi)


def outcome(end_point) -> str:
    """An end point as hex, "None" where there is no bracket, or the message
    of a ValueError."""
    try:
        x = end_point()
    except ValueError as exc:
        return str(exc)
    return "None" if x is None else x.hex()


@contextlib.contextmanager
def kernel_exp_calls():
    """Count the calls of math.exp made by dispersion._window_root: one per
    evaluation of H inside the bound-mode domain, none outside it (+inf)."""
    calls = [0]
    code = dispersion._window_root.__code__

    def profile(frame, event, arg):
        if event == "c_call" and arg is math.exp and frame.f_code is code:
            calls[0] += 1

    sys.setprofile(profile)
    try:
        yield calls
    finally:
        sys.setprofile(None)


@settings(max_examples=500, deadline=None)
@given(
    solver=st.sampled_from(("k", "omega")),
    branch=st.sampled_from(BRANCHES),
    d1=st.floats(min_value=math.log(1e-9), max_value=math.log(1e-3)).map(math.exp),
    frac=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
)
def test_kernel_end_point_is_the_former_bisection(solver, branch, d1, frac):
    """The end point of the one kernel equals, bit for bit, that of the
    former _bisect over the former closures, on the window each solver
    passes it.  solve_k draws omega over the whole band (0, w_sp), where
    omega^2 can underflow: both sides then raise the same ValueError.
    solve_omega draws k in (0, 3 w_sp/c), so its window's top spans the
    band; below k ~ 1e-167 rad/m, where omega^2 underflows in its window,
    it raises NoBoundMode before the kernel."""
    kernel, windows = dispersion._window_root, []

    def recording(*args):
        windows.append(args)
        return kernel(*args)

    dispersion._window_root = recording
    k = 3.0 * frac * W_SP / C_LIGHT
    try:
        if solver == "k":
            solve_k(branch, frac * W_SP, d1, SILVER)
        else:
            solve_omega(branch, k, d1, SILVER)
    except (NoBoundMode, ValueError):
        pass
    finally:
        dispersion._window_root = kernel
    if not windows:
        assert solver == "omega" and k < 1.1e-167
        return
    assert len(windows) == 1
    sign, k, omega, d1, model, lo, hi = windows[0]
    assert outcome(lambda: kernel(sign, k, omega, d1, model, lo, hi)) == outcome(
        lambda: bisection_end_point(former_residual(sign, k, omega, d1, model), lo, hi))


@settings(max_examples=500, deadline=None)
@given(
    branch=st.sampled_from(BRANCHES),
    d1=st.floats(min_value=math.log(1e-9), max_value=math.log(1e-3)).map(math.exp),
    wfrac=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    kfrac=st.floats(min_value=0.0, max_value=3.0, exclude_min=True),
)
def test_residual_from_hoisted_terms_is_bitwise(branch, d1, wfrac, kfrac):
    """The kernel computes k^2, or (w/c)^2 and eps_m, once per solve: its
    end point is that of bisecting H computed from scratch at every point,
    on the windows from the drawn (k, omega) to twice its k or twice its
    omega.  kfrac < 1 puts points above the light line, where H is +inf on
    both sides; where omega^2 underflows to 0, eps_lossless raises the same
    ValueError on both sides."""
    omega = wfrac * W_SP
    k = kfrac * omega / C_LIGHT
    sign = branch.sign
    for kernel_args, f, lo in (
        ((None, omega), lambda x: residual_from_scratch(sign, x, omega, d1, SILVER), k),
        ((k, None), lambda x: residual_from_scratch(sign, k, x, d1, SILVER), omega),
    ):
        got = outcome(lambda: dispersion._window_root(sign, *kernel_args, d1, SILVER, lo, 2.0 * lo))
        assert got == outcome(lambda: bisection_end_point(f, lo, 2.0 * lo))


#: Residual evaluations per solve, keyed by (solver, branch, d1, omega or k).
#: A root costs the two window ends plus the bisection steps, which reuse the
#: value at the window's low end; NoBoundMode costs the two window ends.
RESIDUALS_PER_SOLVE = {
    ("k", "plus", 10e-9, 2e15): 52, ("k", "plus", 10e-9, 3.5e15): 52, ("k", "plus", 10e-9, 5e15): 52,
    ("k", "plus", 60e-9, 2e15): 52, ("k", "plus", 60e-9, 3.5e15): 52, ("k", "plus", 60e-9, 5e15): 52,
    ("k", "minus", 10e-9, 2e15): 52, ("k", "minus", 10e-9, 3.5e15): 52, ("k", "minus", 10e-9, 5e15): 2,
    ("k", "minus", 60e-9, 2e15): 52, ("k", "minus", 60e-9, 3.5e15): 52, ("k", "minus", 60e-9, 5e15): 52,
    ("omega", "plus", 10e-9, 1e7): 53, ("omega", "plus", 10e-9, 2e7): 2, ("omega", "plus", 10e-9, 5e7): 2,
    ("omega", "plus", 60e-9, 1e7): 52, ("omega", "plus", 60e-9, 2e7): 52, ("omega", "plus", 60e-9, 5e7): 52,
    ("omega", "minus", 10e-9, 1e7): 53, ("omega", "minus", 10e-9, 2e7): 53, ("omega", "minus", 10e-9, 5e7): 52,
    ("omega", "minus", 60e-9, 1e7): 52, ("omega", "minus", 60e-9, 2e7): 52, ("omega", "minus", 60e-9, 5e7): 52,
}


def test_residual_evaluations_per_solve():
    """Every point of these windows lies in the bound-mode domain, where
    each evaluation of H calls exp once."""
    solvers = {"k": solve_k, "omega": solve_omega}
    counted = {}
    for key in RESIDUALS_PER_SOLVE:
        solver, branch, d1, x = key
        with kernel_exp_calls() as calls:
            try:
                solvers[solver](BranchId(branch), x, d1, SILVER)
            except NoBoundMode:
                pass
        counted[key] = calls[0]
    assert counted == RESIDUALS_PER_SOLVE


#: Exact roots of H on 20 nm of silver: (sign, k, omega, root), the unknown
#: passed as None.
EXACT_ROOTS = ((+1, 1.153e7, None, 3433808628129358.0), (-1, None, 4e15, 17884417.44835653))


def test_window_low_end_that_is_a_root_is_returned():
    """A root exactly at the window's low end, where H is 0, is returned bit
    for bit after one evaluation: H at the window's top is not needed."""
    for sign, k, omega, root in EXACT_ROOTS:
        at = (k, root) if omega is None else (root, omega)
        assert residual_from_scratch(sign, *at, 20e-9, SILVER) == 0.0
        with kernel_exp_calls() as calls:
            got = dispersion._window_root(sign, k, omega, 20e-9, SILVER, root, 2.0 * root)
        assert (got.hex(), calls[0]) == (root.hex(), 1)


def test_window_without_sign_change_has_no_root(monkeypatch):
    """H of one sign at both window ends is no root at once, whatever roots
    lie inside: the window is the only bracket.  At k = 1.5e7 rad/m the
    plus branch's root lies below the light line c k, about 4.5e15 rad/s;
    above it H is +inf, of the sign H has at 1e15."""
    k, d1 = 1.5e7, 20e-9
    assert dispersion._window_root(+1, k, None, d1, SILVER, 1e15, C_LIGHT * k * (1.0 - 1e-9)) is not None
    evaluated = []

    def recording(model, omega):
        evaluated.append(omega)
        return eps_lossless(model, omega)

    monkeypatch.setattr(dispersion, "eps_lossless", recording)
    assert dispersion._window_root(+1, k, None, d1, SILVER, 1e15, 5e15) is None
    assert evaluated == [1e15, 5e15]


#: solve_k(branch, 4e15, inf) and solve_omega(branch, 1.5e7, inf): the
#: single-interface mode, the same bits on both branches.
INFINITE_STRIP = {
    "k": ("0x1.b01c7bdb8ac0fp+23", "0x1.c6bf526340000p+51"),
    "omega": ("0x1.c9c3800000000p+23", "0x1.dc6ca02df2ee8p+51"),
}


@pytest.mark.parametrize("branch", BRANCHES)
@pytest.mark.parametrize("solver, x", [("k", 4e15), ("omega", 1.5e7)])
def test_non_finite_inputs(branch, solver, x):
    """NaN or a non-positive argument is a ValueError naming it; omega =
    +inf is above the band and k = +inf has no bound mode below it; an
    infinitely thick strip returns the single-interface mode."""
    solve, name = (solve_k, "omega") if solver == "k" else (solve_omega, "k")
    for bad in (math.nan, -math.inf, 0.0, -0.0):
        with pytest.raises(ValueError, match=f"^{name} must be positive, got "):
            solve(branch, bad, 20e-9, SILVER)
        with pytest.raises(ValueError, match="^d1 must be positive, got "):
            solve(branch, x, bad, SILVER)
    with pytest.raises(NoBoundMode):
        solve(branch, math.inf, 20e-9, SILVER)
    sol = solve(branch, x, math.inf, SILVER)
    assert (sol.k.hex(), sol.omega.hex()) == INFINITE_STRIP[solver]
    assert sol.d1 == math.inf


#: SHA-256 of the outcomes of the 20,000 random solves of
#: test_root_bits_are_pinned, recorded with glibc 2.36 libm.
ROOT_BITS_SHA256 = "e77b69c0c4c5449be06be90c059a24bfeba97691bed290224e36f92dc2bfaf09"


def test_root_bits_are_pinned():
    """Roots are part of the contract, bit for bit.  Each draw picks a
    branch and d1 log-uniform in [1 nm, 1 mm]; even draws solve k at omega
    uniform in (0, w_sp), odd draws solve omega at k uniform in
    (0, 3 w_sp/c).  One line per draw, k omega nu_m nu_0 as hex or the
    exception's type and message, is hashed."""
    rng = random.Random(20261018)
    digest = hashlib.sha256()
    for i in range(20000):
        branch = rng.choice(list(BranchId))
        d1 = math.exp(rng.uniform(math.log(1e-9), math.log(1e-3)))
        try:
            if i % 2 == 0:
                sol = solve_k(branch, rng.uniform(0.0, W_SP), d1, SILVER)
            else:
                sol = solve_omega(branch, rng.uniform(0.0, 3.0 * W_SP / C_LIGHT), d1, SILVER)
            line = " ".join(x.hex() for x in (sol.k, sol.omega, sol.nu_m, sol.nu_0))
        except NoBoundMode as exc:
            line = f"{type(exc).__name__}: {exc}"
        digest.update(f"{line}\n".encode())
    assert digest.hexdigest() == ROOT_BITS_SHA256


def _with_loss(damping: float, imag: float) -> DielectricModel:
    """SILVER with its damping rate and imaginary offset scaled."""
    return dataclasses.replace(
        SILVER, damping_rate=damping * SILVER.damping_rate, imag_correction=imag * SILVER.imag_correction
    )


@settings(max_examples=300, deadline=None)
@given(
    branch=st.sampled_from(BRANCHES),
    frac=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True),
    d1=st.floats(min_value=math.log(1e-9), max_value=math.log(1e-3)).map(math.exp),
    losses=st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=4, max_size=4),
)
@example(BranchId.ANTISYMMETRIC, 4e15 / W_SP, 20e-9, [0.0, 0.0, 1.0, 1.0])  # lossless and SILVER itself
@example(BranchId.SYMMETRIC, 0.5, 1e-3, [1e3, 0.0, 0.0, 1e3])
def test_bound_point_does_not_depend_on_the_loss_it_carries(branch, frac, d1, losses):
    """solve_k at omega = frac w_sp and solve_omega at k = 3 frac w_sp/c
    give the same k, omega, nu_m and nu_0 bits, or the same error, under
    two models that differ only in damping_rate and imag_correction (each
    0 to 1e3 times SILVER's), over the whole band and strips of 1 nm to
    1 mm; and each solution carries the model it was solved in.  So a
    caller can solve under the lossy model itself."""
    models = _with_loss(*losses[:2]), _with_loss(*losses[2:])

    def outcome(solve, x, model):
        try:
            sol = solve(branch, x, d1, model)
        except (LrsppError, ValueError) as exc:
            return type(exc), str(exc)
        assert sol.model is model
        return tuple(v.hex() for v in (sol.k, sol.omega, sol.nu_m, sol.nu_0))

    for solve, x in ((solve_k, frac * W_SP), (solve_omega, 3.0 * frac * W_SP / C_LIGHT)):
        assert outcome(solve, x, models[0]) == outcome(solve, x, models[1])


class TestComplexWavenumber:
    def test_loss_free_limit(self, silver_lossless):
        sol = solve_k(BranchId.ANTISYMMETRIC, 4e15, 20e-9, silver_lossless)
        cw = complex_wavenumber(sol)
        assert cw.kappa == 0.0
        assert cw.k == pytest.approx(sol.k, rel=1e-12)

    def test_antisymmetric_is_long_range(self):
        plus, minus = (complex_wavenumber(solve_k(b, 4e15, 20e-9, SILVER)) for b in BRANCHES)
        assert 0.0 < plus.kappa < minus.kappa

    def test_perturbative_oracle_small_loss(self):
        """First-order shift Im[-dF/dem * dem / dF/dk] vs the full complex
        root, at 1% of the silver loss."""
        scale = 0.01
        weak = DielectricModel(
            SILVER.plasma_frequency,
            scale * SILVER.damping_rate,
            SILVER.real_correction_coeff,
            scale * SILVER.imag_correction,
        )
        w, d1 = 4e15, 20e-9
        for branch in BRANCHES:
            sol = solve_k(branch, w, d1, weak)
            em0 = eps_lossless(weak, w)
            woc2 = (w / C_LIGHT) ** 2
            sign = branch.sign

            def resid(k: complex, em: complex) -> complex:
                nu_m = (k * k - em * woc2) ** 0.5
                nu_0 = (k * k - woc2) ** 0.5
                return cmath.exp(-nu_m * d1) - sign * (nu_m + em * nu_0) / (nu_m - em * nu_0)

            hk = 1e-6 * sol.k
            df_dk = (resid(sol.k + hk, em0) - resid(sol.k - hk, em0)) / (2 * hk)
            he = 1e-6 * abs(em0)
            df_de = (resid(sol.k, em0 + he) - resid(sol.k, em0 - he)) / (2 * he)
            delta_em = eps_lossy(weak, w) - em0
            kappa_pert = (-df_de * delta_em / df_dk).imag
            kappa_full = complex_wavenumber(sol).kappa
            assert kappa_full == pytest.approx(kappa_pert, rel=0.10)

    @settings(max_examples=200, deadline=None)
    @given(
        branch=st.sampled_from(BRANCHES),
        d1=st.floats(min_value=math.log(1e-9), max_value=math.log(1e-3)).map(math.exp),
        wfrac=st.floats(min_value=1e-100, max_value=1.0, exclude_max=True),
    )
    def test_mpmath_oracle_over_whole_ranges(self, branch, d1, wfrac):
        """Any strip from 1 nm to 1 mm, any frequency in the bound band
        (from 1e-100 w_sp, where w^2 is far from underflow): wherever both
        the continuation and mpmath converge, kappa agrees to 1e-10."""
        self.check_against_mpmath(branch, d1, wfrac * W_SP)

    def test_mpmath_oracle_near_light_line(self):
        """The plus branch of a 1.5 nm strip at 0.025 w_sp lies 6e-8 k above
        the light line, with kappa/k about 3e-11: a centred difference of
        step 1e-7 |K| straddles the branch point of nu_0 at k = w/c there,
        and put kappa 1.7e-2 off."""
        assert self.check_against_mpmath(BranchId.ANTISYMMETRIC, 1.526e-9, 0.02545 * W_SP)

    @staticmethod
    def check_against_mpmath(branch, d1: float, w: float) -> bool:
        """Whether both solvers converge at (branch, d1, w); where they do,
        assert that kappa agrees with mpmath's to 1e-10."""
        try:
            kw = complex_wavenumber(solve_k(branch, w, d1, SILVER))
        except (NoBoundMode, ConvergenceError):
            return False
        oracle = kappa_oracle(branch, w, d1, SILVER, complex(kw.k, kw.kappa))
        if oracle is None:
            return False
        assert kw.kappa == pytest.approx(oracle, rel=1e-10)
        return True


class TestGroupVelocity:
    def test_subluminal_on_grid(self):
        for w in (2.5e15, 3.5e15, 4.5e15):
            for branch in BRANCHES:
                try:
                    v = group_velocity(solve_k(branch, w, 20e-9, SILVER))
                except NoBoundMode:
                    continue
                assert 0.0 < v < C_LIGHT

    def test_flat_band_near_limit(self, w_sp):
        # deep in the electrostatic regime the band flattens
        k = 30.0 * w_sp / C_LIGHT
        v = group_velocity(solve_omega(BranchId.ANTISYMMETRIC, k, 20e-9, SILVER))
        assert v < 0.05 * C_LIGHT

    def test_richardson_oracle(self):
        """Four-point Richardson-extrapolated derivative agrees to 0.1%."""
        w, d1 = 4e15, 20e-9
        for branch in BRANCHES:
            h = 1e-4 * w
            ks = {m: solve_k(branch, w + m * h, d1, SILVER).k for m in (-2, -1, 1, 2)}
            dk_dw = (-ks[2] + 8 * ks[1] - 8 * ks[-1] + ks[-2]) / (12 * h)
            oracle = 1.0 / dk_dw
            v = group_velocity(solve_k(branch, w, d1, SILVER))
            assert v == pytest.approx(oracle, rel=1e-3)

    @settings(max_examples=300, deadline=None)
    @given(
        branch=st.sampled_from(BRANCHES),
        d1=st.floats(min_value=math.log(5e-9), max_value=math.log(200e-9)).map(math.exp),
        frac=st.floats(min_value=0.3, max_value=0.95),
    )
    def test_richardson_oracle_over_whole_ranges(self, branch, d1, frac):
        """Any strip from 5 to 200 nm, any frequency from 0.3 to 0.95 w_sp:
        the velocity from the residual's slopes is the derivative of the
        inverse solver to 1e-8, wherever the branch is bound."""
        w = frac * W_SP
        try:
            oracle = richardson_velocity(lambda x: solve_k(branch, x, d1, SILVER).k, w)
        except NoBoundMode:
            return
        assert group_velocity(solve_k(branch, w, d1, SILVER)) == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize("d1", [1e-6, 1e-5, 1e-3, math.inf])
    def test_thick_strip_is_single_interface(self, d1):
        """Where exp(-nu_m d1) is below the rounding of the equation, and on
        an infinitely thick strip, both branches move at the group velocity
        of the single interface, whose k(w) = (w/c) sqrt(eps/(eps + 1)) is
        differentiated here without a root solve."""

        def k_single(w: float) -> float:
            em = eps_lossless(SILVER, w)
            return (w / C_LIGHT) * math.sqrt(em / (em + 1.0))

        for frac in (0.05, 0.3, 0.6, 0.9):
            w = frac * W_SP
            oracle = richardson_velocity(k_single, w)
            for branch in BRANCHES:
                assert group_velocity(solve_k(branch, w, d1, SILVER)) == pytest.approx(oracle, rel=1e-9)


def richardson_velocity(k_of, w: float) -> float:
    """Oracle: 1/(dk/dw) from k_of at w +- h and w +- 2h, h = 1e-4 w, by the
    four-point Richardson formula."""
    h = 1e-4 * w
    return 12 * h / (-k_of(w + 2 * h) + 8 * k_of(w + h) - 8 * k_of(w - h) + k_of(w - 2 * h))


def kappa_oracle(branch, w: float, d1: float, model, seed: complex) -> float | None:
    """Oracle: kappa of the root of the pole-free H, with the lossy
    permittivity of model at w, found by mpmath.findroot at 40 digits from
    seed; None where findroot does not converge."""
    with mpmath.workdps(40):
        wp, gamma, c_r, de_i, omega, length = map(
            mpmath.mpf,
            (model.plasma_frequency, model.damping_rate, model.real_correction_coeff, model.imag_correction, w, d1),
        )
        em = 1 - wp * wp / (omega * (omega + 1j * gamma)) + c_r * (omega / wp) ** 2 + 1j * de_i
        woc2 = (omega / mpmath.mpf(C_LIGHT)) ** 2

        def h(k):
            nu_m = mpmath.sqrt(k * k - em * woc2)
            nu_0 = mpmath.sqrt(k * k - woc2)
            return mpmath.exp(-nu_m * length) * (nu_m - em * nu_0) - branch.sign * (nu_m + em * nu_0)

        try:
            return float(mpmath.findroot(h, mpmath.mpc(seed)).imag)
        except ValueError:  # no convergence
            return None


class TestCouplingAngle:
    def test_grazing_limit(self):
        w = 4e15
        k = w / C_LIGHT * math.sqrt(1.51)
        assert coupling_angle(w, k, 1.51) == pytest.approx(math.pi / 2)

    def test_above_critical_angle(self):
        crit = math.asin(1.0 / math.sqrt(1.51))
        for w in (2.5e15, 3.5e15, 4.5e15):
            sol = solve_k(BranchId.ANTISYMMETRIC, w, 20e-9, SILVER)
            assert coupling_angle(w, sol.k, 1.51) > crit

    def test_no_matching_angle(self):
        w = 4e15
        sol = solve_k(BranchId.SYMMETRIC, w, 20e-9, SILVER)
        # the symmetric branch at this point needs more in-plane momentum
        # than an eps1 = 1.51 prism provides
        with pytest.raises(NoMatchingAngle):
            coupling_angle(w, sol.k, 1.51)

    def test_angle_table_trend(self):
        """Antisymmetric angle below symmetric at fixed frequency; both
        monotone in frequency where defined."""
        d1 = 20e-9
        prev = {b: None for b in BRANCHES}
        for w in (2.2e15, 2.6e15, 3.0e15):
            thetas = {}
            for branch in BRANCHES:
                sol = solve_k(branch, w, d1, SILVER)
                thetas[branch] = coupling_angle(w, sol.k, 1.51)
                if prev[branch] is not None:
                    assert thetas[branch] > prev[branch]
                prev[branch] = thetas[branch]
            assert thetas[BranchId.ANTISYMMETRIC] < thetas[BranchId.SYMMETRIC]

    def test_input_validation(self):
        with pytest.raises(ValueError):
            coupling_angle(4e15, 1e7, 0.9)
        with pytest.raises(ValueError):
            coupling_angle(-4e15, 1e7, 1.51)

    def test_non_finite_input_rejected(self):
        for eps_prism in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"^eps_prism must be finite and exceed 1, got {eps_prism!r}$"):
                coupling_angle(4e15, 1e7, eps_prism)
        for omega, k in ((math.nan, 1e7), (4e15, math.nan), (math.inf, 2e7), (4e15, math.inf)):
            with pytest.raises(ValueError, match="^omega and k must be positive and finite$"):
                coupling_angle(omega, k, 1.51)
