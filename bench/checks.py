"""Output checks that survive faster code.

Every body's outputs become tables (one per CLI op, one for all
``cat-phase`` calls).  Two kinds of check run on them:

* **Reference** (seed 0 only): compared with tables recorded from the
  seed code, matched by column name so added columns are ignored.  The
  ``NA`` pattern must be identical; numbers must agree within the
  tolerances in ``TOLERANCES``, which were fixed before any optimisation.
  A table of at most ``FULL_ROWS`` rows is stored and compared row by row
  in full (every sweep, curves and cat-phase table).  A longer one (the
  three chain tables) stores every n-th row, at most ``SAMPLED_ROWS`` of
  them, and the sum of each numeric column over all rows; the sums must
  agree within the summed tolerances.  Every chain row is pinned besides
  by the cross-checks below: each propagate block decays as exp(-2 kappa x)
  from its first row, and each cat-entropy row follows in closed form from
  the propagate rows.
* **Invariants and cross-checks** (every seed): physics that holds on any
  grid, computed here independently of the library: |beta| <= 1,
  g~ in [0, 1], feasibility, the dispersion relation's residual, the
  phase-matching angle, lambda+ + lambda- = 1, 0 <= S <= ln 2, the
  exponential decay of each ``propagate`` block, the closed-form cat
  eigenvalues rebuilt from the ``propagate`` counts, and
  the two-state Gram-matrix eigenvalues for ``cat-phase``.

A check returns the indices of the ops whose output failed, with one
message per failure.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
C_LIGHT = 299792458.0
LN2 = math.log(2.0)
EPS_PRISM = 1.51
MU = 0.65
# Default gap search window of the optimize command (m).
D2_WINDOW = (50e-9, 3e-6)
# A reference stores tables of up to FULL_ROWS rows in full, and every
# n-th row of a longer table, at most SAMPLED_ROWS of them.
FULL_ROWS = 5000
SAMPLED_ROWS = 1000

#: (absolute, relative) tolerance per column; other numeric columns use
#: DEFAULT_TOLERANCE.  d2 sits on a flat optimum, so any optimiser finds a
#: slightly different argmax, and P = 2/(nu_0 d2) follows it.  On the
#: cat-phase grid the number-basis route differs from the two-state closed
#: form by up to 5e-12 in lambda and 3e-10 in entropy (basis truncation),
#: so both tolerances admit a change of route.
TOLERANCES = {
    "g_tilde": (1e-9, 0.0),
    "beta_abs": (1e-9, 0.0),
    "d2": (0.0, 1e-2),
    "P": (0.0, 1e-2),
    "m_tilde": (1e-15, 1e-8),
    "kappa": (0.0, 1e-8),
    "v_group": (0.0, 1e-6),
    "lambda_plus": (1e-9, 0.0),
    "lambda_minus": (1e-9, 0.0),
    "entropy": (1e-8, 0.0),
}
DEFAULT_TOLERANCE = (0.0, 1e-9)

CAT_COLUMNS = ["alpha", "phi", "x", "lambda_plus", "lambda_minus", "entropy", "a_eff", "offdiag"]


class Table:
    def __init__(self, columns: list[str], rows: list[list]):
        self.columns = columns
        self.rows = rows
        self.index = {c: i for i, c in enumerate(columns)}

    def records(self):
        """Rows as dicts keyed by column name."""
        return (dict(zip(self.columns, row)) for row in self.rows)


def _cell(text: str):
    if text == "NA":
        return None
    try:
        return float(text)
    except ValueError:
        return text


def parse_csv(text: str) -> Table:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("CSV output has no header row")
    return Table(lines[0].split(","), [[_cell(c) for c in ln.split(",")] for ln in lines[1:]])


def tables_of(workload: str, ops: list, outputs: list) -> list[Table]:
    if workload == "cat-phase":
        return [Table(CAT_COLUMNS, [[op.alpha, op.phi, op.x, *out] for op, out in zip(ops, outputs)])]
    return [parse_csv(text) for text in outputs]


def _op_of(workload: str, table_index: int, row_index: int) -> int:
    return row_index if workload == "cat-phase" else table_index


def _close(actual, expected, column: str) -> bool:
    if isinstance(expected, str) or isinstance(actual, str):
        return actual == expected
    atol, rtol = TOLERANCES.get(column, DEFAULT_TOLERANCE)
    return abs(actual - expected) <= atol + rtol * abs(expected)


def _na_runs(table: Table, columns: list[str]) -> list[list]:
    """Run-length code of each row's NA columns: [[cols, count], ...]."""
    runs: list[list] = []
    for row in table.rows:
        mask = [c for c in columns if row[table.index[c]] is None]
        if runs and runs[-1][0] == mask:
            runs[-1][1] += 1
        else:
            runs.append([mask, 1])
    return runs


def _column_sums(table: Table, columns: list[str]) -> dict[str, list[float]]:
    """[sum, sum of magnitudes, count] of each column's numeric cells."""
    sums = {}
    for c in columns:
        values = [v for v in (row[table.index[c]] for row in table.rows) if isinstance(v, float)]
        if values:
            sums[c] = [math.fsum(values), math.fsum(abs(v) for v in values), len(values)]
    return sums


def record_reference(workload: str, tables: list[Table], source: str) -> dict:
    out = {"workload": workload, "seed": 0, "source": source, "tables": []}
    for t in tables:
        n = len(t.rows)
        stride = 1 if n <= FULL_ROWS else math.ceil(n / SAMPLED_ROWS)
        out["tables"].append({
            "columns": t.columns,
            "n_rows": n,
            "na_runs": _na_runs(t, t.columns),
            "stride": stride,
            "rows": t.rows[::stride],
            "sums": _column_sums(t, t.columns),
        })
    return out


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


def compare_reference(workload: str, tables: list[Table], reference: dict):
    failed: set[int] = set()
    messages: list[str] = []

    def fail(ti: int, ri: int, msg: str) -> None:
        failed.add(_op_of(workload, ti, ri))
        messages.append(f"reference table {ti} row {ri}: {msg}")

    if len(tables) != len(reference["tables"]):
        fail(0, 0, f"{len(tables)} tables, reference has {len(reference['tables'])}")
        return failed, messages
    for ti, (t, ref) in enumerate(zip(tables, reference["tables"])):
        missing = [c for c in ref["columns"] if c not in t.index]
        if missing:
            fail(ti, 0, f"missing columns {missing}")
            continue
        if len(t.rows) != ref["n_rows"]:
            fail(ti, 0, f"{len(t.rows)} rows, reference has {ref['n_rows']}")
            continue
        if _na_runs(t, ref["columns"]) != ref["na_runs"]:
            fail(ti, 0, "NA pattern differs from the reference")
        for k, ref_row in enumerate(ref["rows"]):
            ri = k * ref["stride"]
            row = t.rows[ri]
            for column, expected in zip(ref["columns"], ref_row):
                actual = row[t.index[column]]
                if expected is None or actual is None:
                    continue  # covered by the NA pattern
                if not _close(actual, expected, column):
                    fail(ti, ri, f"{column} = {actual!r}, reference {expected!r}")
        sums = _column_sums(t, ref["columns"])
        for column, (total, magnitude, count) in ref["sums"].items():
            atol, rtol = TOLERANCES.get(column, DEFAULT_TOLERANCE)
            got = sums.get(column, [math.nan])[0]
            if not abs(got - total) <= count * atol + rtol * magnitude:
                fail(ti, 0, f"column {column} sums to {got!r}, reference {total!r}")
    return failed, messages


# --- invariants and cross-checks ------------------------------------------


def _eps_lossless(model, omega: float) -> float:
    wp = model.plasma_frequency
    return 1.0 - wp * wp / (omega * omega) + model.real_correction_coeff * (omega / wp) ** 2


def _dispersion_residual(model, sign: int, k: float, omega: float, d1: float):
    """(relative residual, nu_m, nu_0) of the thin-strip dispersion relation
    exp(-nu_m d1) = sign (nu_m + em nu_0) / (nu_m - em nu_0)."""
    em = _eps_lossless(model, omega)
    woc2 = (omega / C_LIGHT) ** 2
    nu_m = math.sqrt(k * k - em * woc2)
    nu_0 = math.sqrt(k * k - woc2)
    rhs = sign * (nu_m + em * nu_0) / (nu_m - em * nu_0)
    if rhs <= 0.0:
        return math.inf, nu_m, nu_0
    return abs(math.expm1(-nu_m * d1 - math.log(rhs))), nu_m, nu_0


def _sign(branch: str) -> int:
    return 1 if branch == "plus" else -1


def _cat_eigen(a_sq: float, offdiag: float, phi: float):
    """Eigenvalues and entropy of N^2 sum_ij C_ij |s_i a><s_j a| with
    C = [[1, e^{-i phi} D], [e^{i phi} D, 1]]: those of C G for the 2x2
    Gram matrix G = [[1, q], [q, 1]], q = exp(-2 a^2), scaled to unit trace.

    The discriminant tr^2 - 4 det = 4 (D^2 + q^2 + 2 D q cos phi
    - D^2 q^2 sin^2 phi) is used in this form, which does not cancel when
    the two eigenvalues approach 1/2.
    """
    q = math.exp(-2.0 * a_sq)
    dq = offdiag * q
    trace = 2.0 + 2.0 * dq * math.cos(phi)
    spread = offdiag**2 + q * q + 2.0 * dq * math.cos(phi) - (dq * math.sin(phi)) ** 2
    disc = 2.0 * math.sqrt(max(0.0, spread)) / trace
    lam = (0.5 + 0.5 * disc, 0.5 - 0.5 * disc)
    return lam[0], lam[1], -sum(v * math.log(v) for v in lam if v > 0.0)


def _check_sweep(tables, fail):
    (t,) = tables
    for ri, r in enumerate(t.records()):
        if r["g_tilde"] is None:
            continue
        beta = r["beta_abs"]
        if not 0.0 <= beta <= 1.0:
            fail(0, ri, f"|beta| = {beta!r} outside [0, 1]")
        elif abs(r["g_tilde"] - 2.0 * math.asin(beta) / math.pi) > 1e-12:
            fail(0, ri, f"g~ = {r['g_tilde']!r} is not 2 asin|beta| / pi")
        if not 0.0 <= r["g_tilde"] <= 1.0:
            fail(0, ri, f"g~ = {r['g_tilde']!r} outside [0, 1]")
        if not (r["B"] >= 1.0 and r["P"] <= 1.0 and r["C"] >= 1.0):
            fail(0, ri, f"infeasible optimum B={r['B']!r} P={r['P']!r} C={r['C']!r}")
        if not D2_WINDOW[0] * (1 - 1e-12) <= r["d2"] <= D2_WINDOW[1] * (1 + 1e-12):
            fail(0, ri, f"d2 = {r['d2']!r} outside the gap window")
        if not 0.0 < r["theta"] < math.pi / 2.0:
            fail(0, ri, f"theta = {r['theta']!r} outside (0, pi/2)")


def _check_curves(tables, fail, model):
    for ti, t in enumerate(tables):
        dispersion = "nu_m" in t.index
        for ri, r in enumerate(t.records()):
            omega, k = r["omega"], r["k"]
            if omega is None or k is None:
                continue
            res, nu_m, nu_0 = _dispersion_residual(model, _sign(r["branch"]), k, omega, r["d1"])
            if res > 1e-8:
                fail(ti, ri, f"dispersion residual {res:.3e} at k={k!r}, omega={omega!r}")
            if dispersion:
                if abs(r["nu_m"] - nu_m) > 1e-9 * nu_m or abs(r["nu_0"] - nu_0) > 1e-9 * nu_0:
                    fail(ti, ri, "decay constants disagree with k and omega")
                if r["v_group"] is not None and not 0.0 < r["v_group"] < C_LIGHT:
                    fail(ti, ri, f"v_group = {r['v_group']!r} outside (0, c)")
                if r["kappa"] is not None and not r["kappa"] >= 0.0:
                    fail(ti, ri, f"kappa = {r['kappa']!r} negative")
            else:
                s = C_LIGHT * k / (omega * math.sqrt(EPS_PRISM))
                if abs(math.sin(r["theta"]) - s) > 1e-12:
                    fail(ti, ri, f"theta = {r['theta']!r} does not phase-match k")


def _check_chain(tables, fail):
    prop = tables[0]
    blocks: dict[tuple, list] = defaultdict(list)
    for ri, r in enumerate(prop.records()):
        blocks[(r["branch"], r["omega"])].append((r["x"], r["m_tilde"], ri))
    for rows in blocks.values():
        values = [m for _, m, _ in rows]
        if any(m is None for m in values):
            if any(m is not None for m in values):
                fail(0, rows[0][2], "partly NA propagation block")
            continue
        for (_, m, ri), (_, m_prev, _) in zip(rows[1:], rows):
            if not 0.0 <= m <= m_prev:
                fail(0, ri, f"m~ = {m!r} not in [0, {m_prev!r}] (damping must not gain)")
        x0, m0, ri0 = rows[0]
        if x0 != 0.0 or not 0.0 < m0 <= MU:
            fail(0, ri0, f"m~(0) = {m0!r} outside (0, mu]")
            continue
        # m~(x) = m~(0) exp(-2 kappa x), kappa fixed by the block's last row.
        x_last, m_last, _ = rows[-1]
        rate = math.log(m0 / m_last) / x_last
        for x, m, ri in rows[1:]:
            if abs(m - m0 * math.exp(-rate * x)) > 1e-9 * m:
                fail(0, ri, f"m~ = {m!r} off the block's exponential decay")
    m_at = {(r["branch"], r["omega"], r["x"]): r["m_tilde"] for r in prop.records()}
    for ti, cat in enumerate(tables[1:], start=1):
        for ri, r in enumerate(cat.records()):
            _check_cat_row(r, m_at, lambda msg: fail(ti, ri, msg))


def _check_cat_row(r: dict, m_at: dict, fail) -> None:
    m0 = m_at.get((r["branch"], r["omega"], 0.0))
    m = m_at.get((r["branch"], r["omega"], r["x"]), "missing")
    lp, lm, s = r["lambda_plus"], r["lambda_minus"], r["entropy"]
    if m == "missing":
        fail("no propagation row for this (branch, omega, x)")
    elif (lp is None) != (m is None):
        fail("NA cells of cat-entropy and propagate disagree")
    elif lp is None:
        pass
    elif abs(lp + lm - 1.0) > 1e-9 or not -1e-12 <= s <= LN2 + 1e-9:
        fail(f"lambda sum {lp + lm!r} or entropy {s!r} out of range")
    else:
        # |beta|^2 = m~(0)/mu and eta = m~(x)/m~(0) fix the closed form.
        beta_sq, eta, alpha = m0 / MU, m / m0, r["alpha"]
        offdiag = math.exp(-2.0 * alpha**2 * (1.0 - beta_sq)) * math.exp(-2.0 * alpha**2 * beta_sq * (1.0 - eta))
        want = _cat_eigen(alpha**2 * beta_sq * eta, offdiag, 0.0)
        if abs(lp - want[0]) > 1e-9 or abs(lm - want[1]) > 1e-9 or abs(s - want[2]) > 1e-8:
            fail(f"eigenvalues ({lp!r}, {lm!r}) differ from the closed form {want[:2]!r}")


def _check_cat_phase(tables, ops, fail):
    (t,) = tables
    for ri, (op, r) in enumerate(zip(ops, t.records())):
        lp, lm, s = r["lambda_plus"], r["lambda_minus"], r["entropy"]
        if abs(lp + lm - 1.0) > 1e-9 or not -1e-12 <= s <= LN2 + 1e-9:
            fail(0, ri, f"lambda sum {lp + lm!r} or entropy {s!r} out of range")
            continue
        sin_g, cos_g = math.sin(op.g), math.cos(op.g)
        a_eff = op.alpha * sin_g * math.exp(-op.kappa0 * op.x)
        offdiag = math.exp(-2.0 * op.alpha**2 * cos_g**2) * math.exp(
            2.0 * op.alpha**2 * sin_g**2 * math.expm1(-2.0 * op.kappa0 * op.x)
        )
        if abs(r["a_eff"] - a_eff) > 1e-12 * a_eff or abs(r["offdiag"] - offdiag) > 1e-12 * offdiag + 1e-300:
            fail(0, ri, "a_eff or offdiag differ from the closed form")
        want = _cat_eigen(a_eff * a_eff, offdiag, op.phi)
        if abs(lp - want[0]) > 1e-9 or abs(lm - want[1]) > 1e-9 or abs(s - want[2]) > 1e-8:
            fail(0, ri, f"eigenvalues ({lp!r}, {lm!r}) differ from the Gram closed form {want[:2]!r}")


def check_invariants(workload: str, tables: list[Table], ops: list, model):
    failed: set[int] = set()
    messages: list[str] = []

    def fail(ti: int, ri: int, msg: str) -> None:
        failed.add(_op_of(workload, ti, ri))
        messages.append(f"invariant table {ti} row {ri}: {msg}")

    if workload == "sweep":
        _check_sweep(tables, fail)
    elif workload == "curves":
        _check_curves(tables, fail, model)
    elif workload == "chain":
        _check_chain(tables, fail)
    else:
        _check_cat_phase(tables, ops, fail)
    return failed, messages


def check(workload: str, seed: int, ops: list, outputs: list, model):
    """All checks on one body's outputs: (failed op indices, messages)."""
    try:
        tables = tables_of(workload, ops, outputs)
        failed, messages = check_invariants(workload, tables, ops, model)
        if seed == 0:
            ref_failed, ref_messages = compare_reference(workload, tables, load_reference(workload))
            failed |= ref_failed
            messages += ref_messages
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        return set(range(len(ops))), [f"outputs could not be checked: {exc!r}"]
    return failed, messages
