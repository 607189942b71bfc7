"""The three workloads: fixed op lists whose values come from the seed.

An op is one ``abelfourier.cli.main(argv)`` call plus a check of what it
printed or wrote.  The seed picks function values, masses, row orders,
exponent points and targets inside fixed cells; it never changes which
commands run, on which group shapes, or how many.  Inputs are written with
the reference code, never with the library.

Why these workloads:

* ``csv_io``: per-row CSV parsing and writing dominate ``transform``,
  ``norm`` and ``uncertainty`` on function files.  Files run from N = 16
  (direct DFT) to N ~ 2^14, one- and many-factor, both views, and one file
  in four has shuffled rows.
* ``estimate``: structured search (subgroup enumeration, small direct
  transforms) and smoothed ascent, on groups of 8 to 81 points, at one
  exponent point per region plus one ``p = inf`` point per group.  The
  cells R2, R3, R2' and R3'ext are drawn with q < 2, where every op exits 4
  at ``--max-iters 8``; R1, R1' (q > 2) and the ``p = inf`` points exit 0.
  That keeps the share of non-converged ops the same for every seed.
* ``witness_sweep``: large numpy arrays in the witness families (up to 2^18
  points) at ``--workers 1`` and ``--workers 2``, plus uncertainty violators
  whose group is materialized, symbolic, or past 2^62.
"""

from __future__ import annotations

import csv
import functools
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref
from reference import COMPACT, DISCRETE, FREQUENCY, INF, TIME

TRANSFORM_RTOL = 1e-9
NORM_RTOL = 1e-9
EXACT_RTOL = 1e-12  # the README's tolerance for exact witness families

# exit codes documented in the README
EXIT_OK = 0
EXIT_NOCONVERGE = 4


@dataclass
class Result:
    ok: bool
    nonconverged: bool = False


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: Callable[[int, str], Result]


def _num(x: float) -> str:
    return "inf" if x == INF else repr(x)


def _pick(rng, lo: float, hi: float, digits: int = 4) -> float:
    return round(float(rng.uniform(lo, hi)), digits)


def _exponent_pair(rng, u_cell, v_cell):
    """(p, q) with 1/p and 1/q drawn in the cells.  A cell is a (lo, hi) pair,
    or a function of the drawn u for v.  ``u_cell = None`` means p = inf."""
    u = 0.0 if u_cell is None else _pick(rng, *u_cell)
    v_lo, v_hi = v_cell(u) if callable(v_cell) else v_cell
    v = _pick(rng, v_lo, v_hi)
    p = INF if u == 0.0 else 1.0 / u
    return p, 1.0 / v


def _json(out: str):
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        return None


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


# -- csv_io ------------------------------------------------------------------

# (orders, view); files 1, 5 and 9 (16, 1024 and 16384 rows) are shuffled
CSV_FILES = [
    ((16,), COMPACT),
    ((2, 2, 2, 2), DISCRETE),
    ((8, 8), COMPACT),
    ((3, 5, 7), DISCRETE),
    ((1024,), COMPACT),
    ((4, 4, 4, 4, 4), DISCRETE),
    ((10, 10, 10), COMPACT),
    ((6, 6, 6, 6), DISCRETE),
    ((2,) * 12, COMPACT),
    ((16384,), DISCRETE),
    ((128, 128), COMPACT),
    ((4096,), DISCRETE),
]

# reciprocal-exponent cells for the uncertainty checks
WEIGHTED_CELLS = {
    COMPACT: ((0.55, 0.9), lambda u: (0.03, 0.97 - u)),  # u + v <= 1, u > 1/2
    DISCRETE: ((0.6, 1.5), lambda u: (max(0.05, 1.05 - u), 0.45)),  # u + v >= 1, v < 1/2
}
UNWEIGHTED_CELL = ((0.3, 1.2), lambda u: (max(0.05, 1.05 - u), 1.5))  # u + v >= 1


def _random_function(rng, n: int) -> np.ndarray:
    vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    vals[rng.random(n) < 0.25] = 0.0
    vals[0] = 1.0  # never the zero function
    return vals


def csv_io_ops(rng, workdir: str) -> list[Op]:
    ops = []
    for i, (orders, view) in enumerate(CSV_FILES):
        group = ref.Group(orders, view, _pick(rng, 0.5, 2.0, 3))
        psi = _random_function(rng, group.size)
        psi /= math.sqrt(float(np.sum(np.abs(psi) ** 2)) * group.primal_atom)
        fhat = _random_function(rng, group.size)
        order = rng.permutation(group.size) if i % 4 == 1 else None
        tfile = os.path.join(workdir, f"f{i}.csv")
        ffile = os.path.join(workdir, f"F{i}.csv")
        ref.write_function_csv(tfile, group, TIME, psi, order)
        ref.write_function_csv(ffile, group, FREQUENCY, fhat, order)
        fwd_out = os.path.join(workdir, f"f{i}.fwd.csv")
        inv_out = os.path.join(workdir, f"F{i}.inv.csv")
        ops.append(Op("transform", ["transform", "--input", tfile, "--output", fwd_out],
                      _check_forward(group, psi, fwd_out)))
        ops.append(Op("inverse", ["transform", "--inverse", "--input", ffile, "--output", inv_out],
                      _check_inverse(group, fhat, inv_out)))
        p = INF if i % 3 == 0 else _pick(rng, 0.5, 4.0)
        ops.append(Op("norm", ["norm", "--input", tfile, "--p", _num(p)],
                      _check_norm(group, psi, p)))
        weighted = i % 2 == 0
        p, q = _exponent_pair(rng, *(WEIGHTED_CELLS[view] if weighted else UNWEIGHTED_CELL))
        argv = ["uncertainty", "--mode", "check", "--input", tfile, "--p", _num(p), "--q", _num(q)]
        ops.append(Op("check", argv if weighted else argv + ["--unweighted"],
                      _check_margin(group, psi, p, q, weighted)))
        ops.append(Op("support", ["uncertainty", "--mode", "support", "--input", tfile],
                      _check_support(group, psi)))
    return ops


def _check_function_file(path, group, side, want, rtol, extra=None):
    try:
        spec, got_side, got = ref.parse_function_csv(_read(path))
    except (OSError, ValueError, KeyError):
        return False
    return (spec == group.spec and got_side == side and ref.close_arrays(got, want, rtol)
            and (extra is None or extra(got)))


def _check_forward(group, psi, path):
    def check(code, out):
        return Result(code == EXIT_OK and _check_function_file(
            path, group, FREQUENCY, group.forward(psi), TRANSFORM_RTOL))
    return check


def _check_inverse(group, fhat, path):
    def round_trip(got):
        return ref.close_arrays(group.forward(got), fhat, TRANSFORM_RTOL)

    def check(code, out):
        return Result(code == EXIT_OK and _check_function_file(
            path, group, TIME, group.inverse(fhat), TRANSFORM_RTOL, round_trip))
    return check


def _check_norm(group, psi, p):
    want = ref.lp(psi, group.primal_atom, p)

    def check(code, out):
        got = _json(out)
        return Result(code == EXIT_OK and got is not None and got["group"] == group.spec
                      and got["side"] == TIME and ref.close(got["norm"], want, NORM_RTOL))
    return check


def _entropy(group, values, side, p):
    density = np.abs(values) ** 2
    return ref.renyi(density, group.atom(side), p / 2.0)


def _check_margin(group, psi, p, q, weighted):
    u, v = ref.recip(p), ref.recip(q)
    h_t = _entropy(group, psi, TIME, p)
    h_w = _entropy(group, group.forward(psi), FREQUENCY, q)
    if weighted:
        lhs = (u - 0.5) * h_t + (0.5 - v) * h_w
        rhs = -math.log(ref.closed_form(group, p, q))
    else:
        lhs, rhs = h_t + h_w, 0.0

    def check(code, out):
        got = _json(out)
        return Result(
            code == EXIT_OK and got is not None and got["weighted"] == weighted
            and got["group"] == group.spec
            and ref.close(got["lhs"], lhs, NORM_RTOL) and ref.close(got["rhs"], rhs, NORM_RTOL)
            and ref.close(got["margin"], lhs - rhs, NORM_RTOL) and got["satisfied"] is True
        )
    return check


def _support_count(values):
    mags = np.abs(values)
    return int(np.count_nonzero(mags > 1e-12 * mags.max()))


def _check_support(group, psi):
    n_t = _support_count(psi)
    n_w = _support_count(group.forward(psi))
    product = n_t * group.primal_atom * n_w * group.dual_atom

    def check(code, out):
        got = _json(out)
        return Result(
            code == EXIT_OK and got is not None and got["group"] == group.spec
            and got["n_t"] == n_t and got["n_w"] == n_w and got["product"] == n_t * n_w
            and got["group_size"] == group.size and got["satisfied"] is (n_t * n_w >= group.size)
            and ref.close(got["support_product"], product, NORM_RTOL)
        )
    return check


# -- estimate ----------------------------------------------------------------

ESTIMATE_GROUPS = [
    ((8,), COMPACT),
    ((12,), DISCRETE),
    ((30,), COMPACT),
    ((2,) * 6, DISCRETE),
    ((3,) * 4, COMPACT),
    ((8, 8), DISCRETE),
    ((2,) * 6, COMPACT),
    ((48,), DISCRETE),
]
ESTIMATE_RESTARTS = 4
ESTIMATE_MAX_ITERS = 8

# one cell per region of each view; the last is the p = inf point
REGION_CELLS = {
    COMPACT: [
        ((0.1, 0.5), lambda u: (0.1, min(0.45, 0.95 - u))),  # R1 (finite)
        ((0.6, 0.9), lambda u: (max(0.55, 1.1 - u), 0.95)),  # R2, q < 2
        ((0.05, 0.3), lambda u: (0.55, 0.95 - u)),  # R3
        (None, (0.1, 0.45)),  # p = inf, in R1
    ],
    DISCRETE: [
        ((0.6, 1.2), (0.55, 1.0)),  # R2' (finite), q < 2
        ((0.1, 0.45), lambda u: (0.05, min(0.45, 0.95 - u))),  # R1'
        ((0.05, 0.45), lambda u: (max(0.55, 1.05 - u), 1.3)),  # R3'ext
        (None, (0.55, 0.9)),  # p = inf, in R3'ext
    ],
}


def estimate_ops(rng, workdir: str) -> list[Op]:
    ops = []
    for orders, view in ESTIMATE_GROUPS:
        group = ref.Group(orders, view, _pick(rng, 0.5, 2.0, 3))
        for cell in REGION_CELLS[view]:
            p, q = _exponent_pair(rng, *cell)
            seed = int(rng.integers(0, 2**31))
            argv = ["estimate", "--group", group.spec, "--p", _num(p), "--q", _num(q),
                    "--seed", str(seed), "--restarts", str(ESTIMATE_RESTARTS),
                    "--max-iters", str(ESTIMATE_MAX_ITERS)]
            ops.append(Op("estimate", argv, _check_estimate(group, p, q)))
    return ops


def _structured_lower_bound(group, p, q) -> float:
    """Best of the delta, the constant and (on (Z/r)^2n, r prime) the chirp."""
    delta = np.zeros(group.size, dtype=np.complex128)
    delta[0] = 1.0
    candidates = [delta, np.ones(group.size, dtype=np.complex128)]
    r, k = group.orders[0], len(group.orders)
    if k % 2 == 0 and all(m == r for m in group.orders) and ref.is_prime(r):
        candidates.append(ref.chirp_values(r, k // 2))
    return max(ref.ratio(group, c, p, q) for c in candidates)


def _check_estimate(group, p, q):
    label, finite = ref.region(group.view, ref.recip(p), ref.recip(q))
    cpq = ref.closed_form(group, p, q)
    floor = _structured_lower_bound(group, p, q)

    def check(code, out):
        got = _json(out)
        if code not in (EXIT_OK, EXIT_NOCONVERGE) or got is None:
            return Result(False)
        est = got["estimate"]
        ok = (
            got["group"] == group.spec and got["region"] == label
            and got["converged"] is (code == EXIT_OK)
            and ref.close(got["closed_form"], cpq, 1e-12)
            and isinstance(est, float) and est >= floor * (1.0 - 1e-9)
            and (not finite or ref.close(est, cpq, 1e-9))
        )
        return Result(ok, nonconverged=code == EXIT_NOCONVERGE)
    return check


# -- witness_sweep -----------------------------------------------------------

M_FACTOR = 200  # the CLI's default m = 200 k for arc sweeps
GENERIC_CELL = ((0.25, 0.9), (0.25, 0.9))
# (family, extra flags, params, (u cell, v cell))
SWEEPS = [
    ("arc_indicator", [], [1, 8, 64, 512, 1310], GENERIC_CELL),
    ("subgroup_indicator", ["--r", "2"], [4, 8, 12, 16, 18], GENERIC_CELL),
    ("full_orbit", [], [16, 256, 4096, 65536, 262144], GENERIC_CELL),
    ("chirp", ["--r", "2"], [1, 3, 5, 7, 9], GENERIC_CELL),
    ("chirp", ["--r", "3"], [1, 2, 3, 4, 5], GENERIC_CELL),
    ("lacunary_compact", [], [16, 256, 4096, 65536, 262144], GENERIC_CELL),
    ("lacunary_discrete", [], [4, 8, 12, 15], ((0.25, 0.45), (0.25, 0.9))),  # needs p > 2
    ("clt_delta", ["--r", "2"], [4, 8, 12, 16, 18], GENERIC_CELL),
    ("clt_delta", ["--r", "3"], [3, 6, 9, 11], GENERIC_CELL),
]
SWEEP_HEADER = ["family", "param_n", "group_size", "p", "q", "norm_f", "norm_fhat",
                "ratio", "prediction", "prediction_kind"]

# violators: (side, (u cell, v cell)) crossed with group-size cells for n,
# where the group is 2^n points: materialized, symbolic, past 2^62
VIOLATION_CELLS = [
    (COMPACT, ((0.7, 1.3), lambda u: (max(0.05, 1.1 - u), 0.45))),  # u + v > 1, v <= 1/2
    (DISCRETE, ((0.55, 0.8), lambda u: (0.05, 0.9 - u))),  # u + v < 1, u >= 1/2
]
VIOLATOR_N_CELLS = [(6, 10), (30, 60), (70, 120)]
MATERIALIZE_CAP = 2**20  # the README's exhaustive cap


def witness_sweep_ops(rng, workdir: str) -> list[Op]:
    ops = []
    for family, flags, params, (u_cell, v_cell) in SWEEPS:
        p, q = _exponent_pair(rng, u_cell, v_cell)
        argv = ["sweep", "--kind", "witness", "--family", family,
                "--params", ",".join(map(str, params)), "--p", _num(p), "--q", _num(q), *flags]
        r = int(flags[1]) if flags else None
        # computed at the first check, so set-up time covers only the inputs
        want = functools.cache(lambda family=family, r=r, p=p, q=q, params=params:
                               [_witness_row(family, n, r, p, q) for n in params])
        first = {}
        ops.append(Op("sweep", argv + ["--workers", "1"],
                      _check_sweep(family, params, p, q, want, first, None)))
        ops.append(Op("sweep", argv + ["--workers", "2"],
                      _check_sweep(family, params, p, q, want, None, first)))
    for i, (side, cell) in enumerate(VIOLATION_CELLS):
        for lo, hi in VIOLATOR_N_CELLS:
            p, q = _exponent_pair(rng, *cell)
            n = int(rng.integers(lo, hi + 1))
            u, v = ref.recip(p), ref.recip(q)
            slope = ((1.0 - u - v) if side == COMPACT else (u + v - 1.0)) * math.log(2.0)
            target = round(slope * (n - 0.5), 6)
            out = os.path.join(workdir, f"violator{i}_{lo}.csv")
            argv = ["uncertainty", "--mode", "violate", "--p", _num(p), "--q", _num(q),
                    "--target", repr(target), "--side", side, "--output", out]
            ops.append(Op("violate", argv, _check_violator(side, slope, target, out)))
    return ops


def _witness_row(family, n, r, p, q):
    """Reference (group size, norm_f, norm_fhat, prediction) for one sweep point."""
    u, v = ref.recip(p), ref.recip(q)
    if family == "lacunary_discrete":
        k = np.arange(1, n + 1, dtype=np.float64)
        grid = 8 * 2**n
        coef = np.zeros(grid, dtype=np.complex128)
        coef[2 ** np.arange(1, n + 1)] = 1.0 / np.sqrt(k)
        poly = grid * np.fft.ifft(coef)  # the trig polynomial at grid points
        norm_fhat = ref.lp(poly, 1.0 / grid, q)
        norm_f = float(np.sum(k ** (-p / 2.0)) ** (1.0 / p))
        return 2**n, norm_f, norm_fhat, None
    if family == "arc_indicator":
        m = n * M_FACTOR
        group = ref.Group((m,), COMPACT, 1.0)
        x = np.arange(m)
        ind = (np.minimum(x, m - x) * 6 * n < m).astype(np.complex128)
        f = ind / (ind.real.sum() / m)
        pred = (3.0 ** (u - 1.0) / 2.0) * n ** (u + v - 1.0)
    elif family == "subgroup_indicator":
        group = ref.Group((r,) * n, COMPACT, 1.0)
        f = np.zeros(group.size, dtype=np.complex128)
        f[0] = group.size
        pred = float(group.size) ** (u + v - 1.0)
    elif family == "full_orbit":
        group = ref.Group((n,), DISCRETE, 1.0)
        f = np.ones(n, dtype=np.complex128)
        pred = float(n) ** (1.0 - u - v)
    elif family == "chirp":
        group = ref.Group((r,) * (2 * n), COMPACT, 1.0)
        f = ref.chirp_values(r, n)
        pred = float(r) ** (n * (2.0 * v - 1.0))
    elif family == "lacunary_compact":
        group = ref.Group((n,), COMPACT, 1.0)
        k = np.arange(2, n, dtype=np.float64)
        freq = np.zeros(n, dtype=np.complex128)
        freq[2:] = np.exp(1j * k * np.log(k)) / (np.sqrt(k) * np.log(k) ** 1.5)
        f = group.inverse(freq)
        pred = ref.lp(freq[2:], 1.0, q)
    else:  # clt_delta
        group = ref.Group((r,) * n, DISCRETE, 1.0)
        f = np.zeros(group.size, dtype=np.complex128)
        for k in range(1, n + 1):
            f[(r - 1) * r ** (n - k)] += 1.0 / math.sqrt(k)  # delta at -e_k
        pred = None
    norm_f = ref.lp(f, group.primal_atom, p)
    norm_fhat = ref.lp(group.forward(f), group.dual_atom, q)
    return group.size, norm_f, norm_fhat, pred


EXACT_FAMILIES = {"subgroup_indicator", "full_orbit", "chirp"}


def _row_ok(row, family, n, want, p, q) -> bool:
    size, norm_f, norm_fhat, pred = want
    if (row[0] != family or row[1] != str(n) or row[2] != str(size)
            or row[3] != _num(p) or row[4] != _num(q)):
        return False
    got_f, got_fhat, got_ratio = float(row[5]), float(row[6]), float(row[7])
    ok = (ref.close(got_f, norm_f, NORM_RTOL) and ref.close(got_fhat, norm_fhat, NORM_RTOL)
          and ref.close(got_ratio, norm_fhat / norm_f, NORM_RTOL))
    if pred is None:
        return ok and row[8] == "" and row[9] == ""
    got_pred = float(row[8])
    ok = ok and ref.close(got_pred, pred, EXACT_RTOL)
    if family in EXACT_FAMILIES:
        return ok and row[9] == "exact" and abs(got_ratio - got_pred) <= EXACT_RTOL * got_pred
    if family == "arc_indicator":
        return ok and row[9] == "lower_bound" and got_ratio >= got_pred
    return ok and row[9] == "lower_bound" and got_fhat >= got_pred * (1.0 - NORM_RTOL)


def _check_sweep(family, params, p, q, want, store, twin):
    """``store`` keeps the --workers 1 output; ``twin`` is that store, read by
    the --workers 2 op, whose output must be byte-identical to it."""
    def check(code, out):
        if store is not None:
            store["out"] = out
        if code != EXIT_OK:
            return Result(False)
        table = list(csv.reader(io.StringIO(out)))
        if not table or table[0] != SWEEP_HEADER or len(table) != len(params) + 1:
            return Result(False)
        ok = all(_row_ok(row, family, n, w, p, q) for row, n, w in zip(table[1:], params, want()))
        return Result(ok and (twin is None or twin.get("out") == out))
    return check


def _check_violator(side, slope, target, path):
    n = max(1, math.ceil(target / slope))
    while slope * n > target:
        n += 1
    while n > 1 and slope * (n - 1) <= target:
        n -= 1
    if side == COMPACT:
        family, group = "subgroup_indicator", ref.Group((2,) * n, COMPACT, 1.0)
    else:
        family, group = "full_orbit", ref.Group((2**n,), DISCRETE, 1.0)
    materialized = group.size <= MATERIALIZE_CAP

    def witness_ok() -> bool:
        if not materialized:
            return not os.path.exists(path)
        want = np.zeros(group.size, dtype=np.complex128)
        if side == COMPACT:
            want[0] = math.sqrt(group.size)
        else:
            want[:] = 1.0 / math.sqrt(group.size)
        return _check_function_file(path, group, TIME, want, NORM_RTOL)

    def check(code, out):
        got = _json(out)
        return Result(
            code == EXIT_OK and got is not None and got["mode"] == "violate"
            and got["side"] == side and got["family"] == family and got["param_n"] == n
            and got["group"] == group.spec and ref.close(got["value"], slope * n, EXACT_RTOL)
            and got["target"] == target and got["achieved"] is True
            and got["materialized"] is materialized
            and got["witness"] == (path if materialized else None) and witness_ok()
        )
    return check


WORKLOADS = {
    "csv_io": csv_io_ops,
    "estimate": estimate_ops,
    "witness_sweep": witness_sweep_ops,
}
