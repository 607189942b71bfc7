"""Command-line front end.

Subcommands: info, transform, norm, region, cpq, witness, sweep, estimate,
uncertainty.  JSON on stdout by default; CSV for function data and sweeps.
Floats are emitted with shortest round-trip encoding; infinities appear as
the string "inf".  Exit codes: 0 success, 2 usage error, 3 capacity error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict
from typing import Callable, NamedTuple

import numpy as np

from .groups import COMPACT, DISCRETE, CapacityError, GroupSpec
from .transform import (
    FREQUENCY,
    TIME,
    MeasuredFunction,
    character_function,
    delta,
    forward,
    inverse,
    parseval_defect,
    read_csv,
    write_csv,
)
from .norms import INF, classify, closed_form_cpq, finite_cpq, lp_norm, ratio, recip
from . import witnesses as wit
from .uncertainty import (
    donoho_stark_check,
    support_measure,
    unweighted_up_margin,
    weighted_up_margin,
    weighted_up_violator,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAPACITY = 3


def _jsonable(obj):
    if isinstance(obj, float):
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        if math.isnan(obj):
            return "nan"
        return obj
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return _jsonable(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def _emit_json(payload, out=None):
    (out or sys.stdout).write(json.dumps(_jsonable(payload), indent=2) + "\n")


def _exponent(text: str) -> float:
    t = text.strip().lower()
    if t in ("inf", "infinity", "oo"):
        return INF
    try:
        val = float(t)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an exponent: {text!r}")
    if not val > 0:
        raise argparse.ArgumentTypeError("exponent must be positive")
    return val


def _positive_int(text: str) -> int:
    try:
        val = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if val < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return val


def _float_list(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t.strip()]


def _int_list(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip()]


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", newline=""), True


def _read_function(path) -> MeasuredFunction:
    if path in (None, "-"):
        return read_csv(sys.stdin.read())
    with open(path) as fh:
        return read_csv(fh.read())


# -- subcommand handlers -----------------------------------------------------

def _cmd_info(args) -> int:
    spec = GroupSpec.parse(args.group)
    _emit_json(
        {
            "group": spec.describe(),
            "orders": list(spec.orders),
            "view": spec.view,
            "mass": spec.mass,
            "size": spec.size,
            "primal_atom": spec.primal_atom,
            "primal_total": spec.primal_total,
            "dual_atom": spec.dual_atom,
            "dual_total": spec.dual_total,
        }
    )
    return EXIT_OK


def _cmd_transform(args) -> int:
    f = _read_function(args.input)
    g = inverse(f) if args.inverse else forward(f)
    out, close = _open_out(args.output)
    try:
        write_csv(g, out)
    finally:
        if close:
            out.close()
    return EXIT_OK


def _cmd_norm(args) -> int:
    f = _read_function(args.input)
    _emit_json(
        {
            "group": f.spec.describe(),
            "side": f.side,
            "p": args.p,
            "norm": lp_norm(f, args.p),
        }
    )
    return EXIT_OK


def _cmd_region(args) -> int:
    spec = GroupSpec.parse(args.group) if args.group else None
    verdict = classify(args.side, args.u, args.v, spec=spec)
    _emit_json(
        {
            "side": verdict.side,
            "u": args.u,
            "v": args.v,
            "label": verdict.label,
            "finite": verdict.finite,
            "value": verdict.value,
        }
    )
    return EXIT_OK


def _cmd_cpq(args) -> int:
    spec = GroupSpec.parse(args.group)
    finite_norm, extremal = finite_cpq(spec, args.p, args.q)
    _emit_json(
        {
            "group": spec.describe(),
            "p": args.p,
            "q": args.q,
            "finite_norm": finite_norm,
            "extremal": extremal,
            "value": closed_form_cpq(spec, args.p, args.q),
        }
    )
    return EXIT_OK


class SystemExit2(Exception):
    """Usage error raised after argparse has finished."""


WITNESS_SWEEP_HEADER = [
    "family",
    "param_n",
    "group_size",
    "p",
    "q",
    "norm_f",
    "norm_fhat",
    "ratio",
    "prediction",
    "prediction_kind",
]


def _fmt(x: float) -> str:
    return "inf" if x == INF else repr(float(x))


def _sweep_row(w) -> list:
    """One ``sweep`` CSV row of a witness (a ``WitnessPoint`` or a
    ``LacunaryDiscreteWitness``)."""
    return [
        w.family,
        w.param_n,
        w.group_size,
        _fmt(w.p),
        _fmt(w.q),
        repr(w.norm_f),
        repr(w.norm_fhat),
        repr(w.ratio),
        "" if w.prediction is None else repr(w.prediction),
        w.prediction_kind or "",
    ]


#: m = ARC_M_FACTOR * k at each point of an arc indicator sweep over k
ARC_M_FACTOR = 200


class Family(NamedTuple):
    """How the CLI builds and sweeps one witness family.  ``witness`` prints
    the witness's fields as JSON and ``sweep`` its ``_sweep_row``."""

    build: Callable  # (args, p, q) -> witness
    required: tuple[str, ...]  # flags that must be given
    sweep: Callable  # (sweep value, args) -> {flag: value} for that point


def _sets(flag: str) -> Callable:
    return lambda value, args: {flag: value}


# Constructors are looked up on ``wit`` at call time, so a wrapper installed
# on the witnesses module (a tracer, say) sees the CLI's calls.
FAMILIES = {
    "arc_indicator": Family(
        lambda a, p, q: wit.arc_indicator_witness(a.k, a.m, p, q),
        ("k", "m"),
        lambda value, args: {"k": value, "m": value * ARC_M_FACTOR},
    ),
    "subgroup_indicator": Family(
        lambda a, p, q: wit.subgroup_indicator_witness(a.r, a.n, p, q), ("r", "n"), _sets("n")
    ),
    "full_orbit": Family(lambda a, p, q: wit.full_orbit_witness(a.m, p, q), ("m",), _sets("m")),
    "chirp": Family(lambda a, p, q: wit.chirp_witness(a.r, a.n, q, p=p), ("r", "n"), _sets("n")),
    "lacunary_compact": Family(
        lambda a, p, q: wit.lacunary_compact_witness(a.m, p, q), ("m",), _sets("m")
    ),
    "lacunary_discrete": Family(
        lambda a, p, q: wit.lacunary_discrete_witness(a.n, p, q, grid_points=a.grid),
        ("n",),
        _sets("n"),
    ),
    "clt_delta": Family(
        lambda a, p, q: wit.clt_delta_witness(a.r, a.n, p, q), ("r", "n"), _sets("n")
    ),
}


def _witness(args):
    """The witness of family ``args.family`` at the flags in ``args``."""
    family = FAMILIES[args.family]
    missing = [n for n in family.required if getattr(args, n) is None]
    if missing:
        raise SystemExit2(f"family {args.family!r} needs --" + ", --".join(missing))
    p = args.p if args.p is not None else 1.0
    q = args.q if args.q is not None else 1.0
    return family.build(args, p, q)


def _cmd_witness(args) -> int:
    _emit_json(asdict(_witness(args)))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    # Every row is computed before --output is opened, so a usage or capacity
    # error leaves no partial CSV on stdout and no output file.
    if args.kind == "region":
        if args.side is None or not args.u_values or not args.v_values:
            raise SystemExit2("sweep --kind region needs --side, --u-values, --v-values")
        header = ["u", "v", "side", "label", "finite", "value"]
        spec = GroupSpec.parse(args.group) if args.group else None
        todo = [(u, v) for u in args.u_values for v in args.v_values]

        def one(uv):
            u, v = uv
            verdict = classify(args.side, u, v, spec=spec)
            return [
                repr(u),
                repr(v),
                verdict.side,
                verdict.label,
                verdict.finite,
                "" if verdict.value is None else repr(verdict.value),
            ]

    else:
        if args.family is None or not args.params:
            raise SystemExit2("sweep --kind witness needs --family and --params")
        header = WITNESS_SWEEP_HEADER
        family = FAMILIES[args.family]
        todo = args.params

        def one(value):
            sub = argparse.Namespace(**{**vars(args), **family.sweep(value, args)})
            return _sweep_row(_witness(sub))

    with ThreadPoolExecutor(max_workers=args.workers) as ex:
        rows = list(ex.map(one, todo))
    out, close = _open_out(args.output)
    try:
        csv.writer(out, lineterminator="\n").writerows([header, *rows])
    finally:
        if close:
            out.close()
    return EXIT_OK


def _cmd_estimate(args) -> int:
    spec = GroupSpec.parse(args.group)
    value, extremal = finite_cpq(spec, args.p, args.q)
    verdict = classify(spec.view, recip(args.p), recip(args.q), spec=spec)
    _emit_json(
        {
            "group": spec.describe(),
            "p": args.p,
            "q": args.q,
            "estimate": value,
            "extremal": extremal,
            "closed_form": verdict.value if verdict.finite else INF,
            "region": verdict.label,
            "converged": True,
            "iterations": 0,
        }
    )
    return EXIT_OK


def _cmd_uncertainty(args) -> int:
    if args.mode == "check":
        if args.p is None or args.q is None:
            raise SystemExit2("mode check needs --p and --q")
        psi = _read_function(args.input)
        if args.unweighted:
            report = unweighted_up_margin(psi, args.p, args.q)
        else:
            report = weighted_up_margin(psi, args.p, args.q)
        _emit_json(
            {
                "mode": "check",
                "weighted": not args.unweighted,
                "group": psi.spec.describe(),
                "p": args.p,
                "q": args.q,
                "lhs": report.lhs,
                "rhs": report.rhs,
                "margin": report.margin,
                "satisfied": report.satisfied,
            }
        )
        return EXIT_OK
    if args.mode == "violate":
        if args.p is None or args.q is None or args.target is None:
            raise SystemExit2("mode violate needs --p, --q and --target")
        result = weighted_up_violator(args.target, args.p, args.q, args.side)
        witness_ref = None
        if result.psi is not None and args.output:
            with open(args.output, "w", newline="") as fh:
                write_csv(result.psi, fh)
            witness_ref = args.output
        _emit_json(
            {
                "mode": "violate",
                "side": result.side,
                "family": result.family,
                "param_n": result.param_n,
                "group": result.group_descr,
                "value": result.value,
                "target": result.target,
                "achieved": result.achieved,
                "witness": witness_ref,
                "materialized": result.psi is not None,
            }
        )
        return EXIT_OK
    # mode support
    psi = _read_function(args.input)
    n_t, n_w, product = donoho_stark_check(psi)
    _emit_json(
        {
            "mode": "support",
            "group": psi.spec.describe(),
            "support_product": support_measure(psi.spec, n_t, n_w),
            "n_t": n_t,
            "n_w": n_w,
            "product": product,
            "group_size": psi.spec.size,
            "satisfied": product >= psi.spec.size,
        }
    )
    return EXIT_OK


# -- selftest ---------------------------------------------------------------

def _selftest() -> int:
    """Fast fixed-seed subset of the acceptance checks."""
    rng = np.random.default_rng(12345)
    failures = 0

    def check(name, ok):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        if not ok:
            failures += 1

    worst = 0.0
    for _ in range(50):
        orders = tuple(int(rng.integers(2, 9)) for _ in range(int(rng.integers(1, 3))))
        view = COMPACT if rng.integers(2) else DISCRETE
        spec = GroupSpec(orders=orders, view=view, mass=float(rng.uniform(0.5, 2.0)))
        vals = rng.standard_normal(spec.size) + 1j * rng.standard_normal(spec.size)
        f = MeasuredFunction(spec, TIME, vals)
        worst = max(worst, parseval_defect(f))
    check("parseval on random groups", worst <= 1e-10)

    spec = GroupSpec(orders=(4,), view=COMPACT, mass=1.0)
    chi = character_function(spec, (1,))
    check("character attains compact closed form", abs(ratio(chi, 1.0, 4.0) - 1.0) <= 1e-12)

    dspec = GroupSpec(orders=(4,), view=DISCRETE, mass=0.25)
    d = delta(dspec)
    check(
        "delta attains discrete closed form",
        abs(ratio(d, 1.0, 1.0) - closed_form_cpq(dspec, 1.0, 1.0)) <= 1e-9,
    )

    cw = wit.chirp_witness(2, 2, 1.0)
    check("chirp exact ratio", abs(cw.ratio - 4.0) <= 1e-12)

    cases = []  # (witness, its function on the whole group, its full FFT)
    for r, n in ((2, 8), (3, 4)):
        spec = GroupSpec(orders=(r,) * n, view=COMPACT)
        dspec = GroupSpec(orders=(r,) * n, view=DISCRETE)
        comb = np.zeros(dspec.size, dtype=np.complex128)
        comb[(r - 1) * r ** (n - np.arange(1, n + 1))] = wit._comb_weights(n)  # atoms at -e_k
        for p, q in ((3.0, 1.5), (INF, 0.5)):
            for point, f in (
                (wit.subgroup_indicator_witness(r, n, p, q),
                 MeasuredFunction(spec, TIME, spec.size * delta(spec).values)),
                (wit.chirp_witness(r, n // 2, q, p=p),
                 MeasuredFunction(spec, TIME, wit.bi_unimodular_values(spec.orders))),
                (wit.clt_delta_witness(r, n, p, q), MeasuredFunction(dspec, TIME, comb)),
            ):
                cases.append((point, f, forward(f)))
    for k, m in ((8, 1600), (2, 402)):
        x = np.arange(m)
        arc = (np.minimum(x, m - x) * 6 * k < m).astype(np.complex128)
        n = np.count_nonzero(arc)
        f = MeasuredFunction(GroupSpec(orders=(m,), view=COMPACT), TIME, arc * (m / n))
        fhat = forward(f)
        # the FFT leaves roundoff where the Dirichlet kernel is exactly 0,
        # which a power q < 1 inflates (6% at (2, 402) and q = 0.1)
        fhat.values[(n * x % m == 0) & (x > 0)] = 0.0
        for p, q in ((3.0, 1.5), (INF, 0.5)):
            cases.append((wit.arc_indicator_witness(k, m, p, q), f, fhat))
    # the discrete lacunary comb at n = 6 against all M grid values, one
    # inverse transform of k^(-1/2) at bin 2^k: an even grid takes one period
    # of M/2 points, an odd one all M
    n = 6
    comb = wit._comb_weights(n)
    f = MeasuredFunction(GroupSpec(orders=(n,), view=DISCRETE), TIME, comb)
    for grid in (8 * 2**n, 8 * 2**n + 1):
        freq = np.zeros(grid, dtype=np.complex128)
        freq[2 ** np.arange(1, n + 1)] = comb
        fhat = inverse(MeasuredFunction(GroupSpec(orders=(grid,)), FREQUENCY, freq))
        for p, q in ((3.0, 1.5), (INF, 0.5)):
            cases.append((wit.lacunary_discrete_witness(n, p, q, grid_points=grid), f, fhat))
    ok = True
    for point, f, fhat in cases:
        norm_f, norm_fhat = lp_norm(f, point.p), lp_norm(fhat, point.q)
        for got, want in (
            (point.norm_f, norm_f),
            (point.norm_fhat, norm_fhat),
            (point.ratio, norm_fhat / norm_f),
        ):
            ok = ok and abs(got - want) <= 1e-12 * want
    check("closed-form and outer-sum witness norms match the full FFT", ok)

    ok = True
    for _ in range(100):
        spec = GroupSpec(orders=(16,), view=DISCRETE, mass=1.0)
        vals = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        psi = MeasuredFunction(spec, TIME, vals)
        _, _, product = donoho_stark_check(psi)
        ok = ok and product >= 16
    check("support products", ok)

    ok = True
    for orders in ((12,), (3, 4, 5)):
        spec = GroupSpec(orders=orders, view=DISCRETE, mass=0.5)
        vals = rng.standard_normal(spec.size) + 1j * rng.standard_normal(spec.size)
        vals[0] = complex(-0.0, -0.0)
        header, columns, *rows = write_csv(MeasuredFunction(spec, TIME, vals)).splitlines(True)
        for order in (range(spec.size), rng.permutation(spec.size)):
            got = read_csv("".join([header, columns, *(rows[i] for i in order)])).values
            ok = ok and np.array_equal(got.view(np.uint64), vals.view(np.uint64))
    check("function CSV round trip, canonical and shuffled rows", ok)

    return EXIT_OK if failures == 0 else 1


# -- parser -----------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one.

    Building it takes about 2 ms, far more than an ``estimate`` call's own
    work, so ``main`` reuses it.  The returned parser is shared: do not
    mutate it (add arguments, set defaults).  ``build_parser.__wrapped__()``
    builds a fresh one.  Reuse is safe because:

    - ``parse_args`` makes a new ``Namespace`` on every call and does not
      mutate the parser;
    - every default is immutable (``str``, ``int``, ``float``, ``None`` or
      ``False``);
    - the ``type=`` callables (``_exponent``, ``_positive_int``,
      ``_int_list``, ``_float_list``) return new objects;
    - the ``--family`` choices come from the static ``FAMILIES`` table;
    - argparse looks up ``sys.stdout``/``sys.stderr`` for help, usage and
      error text at call time, so redirected streams still capture it.
    """
    parser = argparse.ArgumentParser(prog="abelfourier")
    parser.add_argument("--selftest", action="store_true", help="run a fast acceptance subset")
    sub = parser.add_subparsers(dest="subcommand")

    sp = sub.add_parser("info", help="describe a group spec")
    sp.add_argument("--group", required=True)

    sp = sub.add_parser("transform", help="Fourier transform of a CSV function")
    sp.add_argument("--input", default="-")
    sp.add_argument("--output", default="-")
    sp.add_argument("--inverse", action="store_true")

    sp = sub.add_parser("norm", help="L^p norm of a CSV function")
    sp.add_argument("--input", default="-")
    sp.add_argument("--p", type=_exponent, required=True)

    sp = sub.add_parser("region", help="classify a point in the (1/p, 1/q) plane")
    sp.add_argument("--side", choices=[COMPACT, DISCRETE], required=True)
    sp.add_argument("--u", type=float, required=True)
    sp.add_argument("--v", type=float, required=True)
    sp.add_argument("--group")

    sp = sub.add_parser("cpq", help="closed-form operator norm, infinite group and finite")
    sp.add_argument("--group", required=True)
    sp.add_argument("--p", type=_exponent, required=True)
    sp.add_argument("--q", type=_exponent, required=True)

    def add_witness_flags(sp):
        sp.add_argument("--p", type=_exponent)
        sp.add_argument("--q", type=_exponent)
        sp.add_argument("--k", type=int)
        sp.add_argument("--m", type=int)
        sp.add_argument("--r", type=int)
        sp.add_argument("--n", type=int)
        sp.add_argument("--grid", type=int)

    sp = sub.add_parser("witness", help="evaluate one witness family member")
    sp.add_argument("--family", choices=list(FAMILIES), required=True)
    add_witness_flags(sp)

    sp = sub.add_parser("sweep", help="CSV sweep over witness parameters or region grid")
    sp.add_argument("--kind", choices=["witness", "region"], default="witness")
    sp.add_argument("--workers", type=_positive_int, default=1)
    sp.add_argument("--output", default="-")
    sp.add_argument("--family", choices=list(FAMILIES))
    sp.add_argument("--params", type=_int_list, help="comma-separated family parameters")
    add_witness_flags(sp)
    sp.add_argument("--side", choices=[COMPACT, DISCRETE])
    sp.add_argument("--u-values", type=_float_list)
    sp.add_argument("--v-values", type=_float_list)
    sp.add_argument("--group")

    sp = sub.add_parser("estimate", help="exact operator norm on the finite group")
    sp.add_argument("--group", required=True)
    sp.add_argument("--p", type=_exponent, required=True)
    sp.add_argument("--q", type=_exponent, required=True)
    no_effect = "accepted for compatibility; has no effect (the norm is exact)"
    sp.add_argument("--seed", type=int, default=0, help=no_effect)
    sp.add_argument("--restarts", type=int, default=32, help=no_effect)
    sp.add_argument("--max-iters", type=int, default=5000, help=no_effect)

    sp = sub.add_parser("uncertainty", help="entropic uncertainty checks")
    sp.add_argument("--mode", choices=["check", "violate", "support"], required=True)
    sp.add_argument("--input", default="-")
    sp.add_argument("--p", type=_exponent)
    sp.add_argument("--q", type=_exponent)
    sp.add_argument("--unweighted", action="store_true")
    sp.add_argument("--target", type=float)
    sp.add_argument("--side", choices=[COMPACT, DISCRETE], default=COMPACT)
    sp.add_argument("--output")

    return parser


_HANDLERS = {
    "info": _cmd_info,
    "transform": _cmd_transform,
    "norm": _cmd_norm,
    "region": _cmd_region,
    "cpq": _cmd_cpq,
    "witness": _cmd_witness,
    "sweep": _cmd_sweep,
    "estimate": _cmd_estimate,
    "uncertainty": _cmd_uncertainty,
}


def main(argv=None) -> int:
    """Run one CLI command on ``argv`` (default ``sys.argv[1:]``); return its exit code.

    May be called repeatedly in one process; the parser is built on the
    first call (see ``build_parser``).  An argparse usage error, or
    ``--help``, raises ``SystemExit`` (code 2, or 0 for help) as argparse
    does; every other outcome is returned.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.selftest:
        return _selftest()
    if args.subcommand is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        return _HANDLERS[args.subcommand](args)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except SystemExit2 as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
