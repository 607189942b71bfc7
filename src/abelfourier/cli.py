"""Command-line front end.

Subcommands: info, transform, norm, region, cpq, witness, sweep, estimate,
uncertainty.  JSON on stdout by default; CSV for function data and sweeps.
Floats are emitted with shortest round-trip encoding; infinities appear as
the string "inf".  Exit codes: 0 success, 1 a failed ``--selftest`` check,
2 usage error, 3 capacity error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import math
import sys
from dataclasses import asdict
from json.encoder import encode_basestring_ascii
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
    read_csv,
    write_csv,
)
from .norms import (
    INF,
    RegionVerdict,
    classify,
    closed_form_cpq,
    finite_cpq_at,
    lp_norm,
    parseval_defect,
    ratio,
    recip,
)
from . import witnesses as wit
from .uncertainty import (
    _on_support,
    donoho_stark_check,
    support_measure,
    unweighted_up_margin,
    weighted_up_margin,
    weighted_up_violator,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CAPACITY = 3


def _json_text(obj, newline: str = "\n") -> str:
    """``obj`` as ``json.dumps(obj, indent=2)`` writes it, with infinities and
    nan as the strings "inf", "-inf" and "nan" and numpy scalars as Python
    numbers.  ``newline`` is a line break and the indent of ``obj``'s line.

    The same bytes as the ``json`` module's indenting encoder, which is pure
    Python: strings through its C ``encode_basestring_ascii``, numbers by
    ``int.__repr__`` and ``float.__repr__``.  Dict keys must be strings."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isfinite(x):
            return float.__repr__(x)
        return '"nan"' if x != x else '"inf"' if x > 0 else '"-inf"'
    inner = newline + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}" for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([_json_text(v, inner) for v in obj]) + newline + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit_json(payload):
    sys.stdout.write(_json_text(payload) + "\n")


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


def _open_out(path: str):
    """The output stream as a context manager: stdout for "-", the default of
    each ``--output`` passed here, left open; else path's file, closed on exit."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", newline="")


def _read_function(path: str) -> MeasuredFunction:
    if path == "-":
        return read_csv(sys.stdin.read())
    with open(path) as fh:
        return read_csv(fh.read())


# -- subcommand handlers -----------------------------------------------------

def _cmd_info(args) -> dict:
    spec = GroupSpec.parse(args.group)
    return {
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


def _cmd_transform(args) -> None:
    f = _read_function(args.input)
    g = inverse(f) if args.inverse else forward(f)
    with _open_out(args.output) as out:
        write_csv(g, out)


def _cmd_norm(args) -> dict:
    f = _read_function(args.input)
    return {
        "group": f.spec.describe(),
        "side": f.side,
        "p": args.p,
        "norm": lp_norm(f, args.p),
    }


def _region(side: str, u: float, v: float, spec: GroupSpec | None) -> dict:
    """The ``region`` payload at (u, v), also each row of the region sweep:
    ``classify``'s verdict there and, at a finite point when spec is given,
    the norm (else None), both from one ``finite_cpq_at`` call.  A spec whose
    view is not ``side`` is an error at every point, checked after u and v."""
    value, verdict = (None, classify(side, u, v)) if spec is None else finite_cpq_at(spec, u, v)
    if spec is not None and spec.view != side:
        raise ValueError(f"spec view {spec.view!r} does not match side {side!r}")
    return {
        "side": verdict.side,
        "u": u,
        "v": v,
        "label": verdict.label,
        "finite": verdict.finite,
        "value": value if verdict.finite else None,
    }


def _cmd_region(args) -> dict:
    return _region(args.side, args.u, args.v, GroupSpec.parse(args.group) if args.group else None)


def _cpq(args) -> tuple[dict, RegionVerdict]:
    """``cpq``'s payload and the verdict at (--p, --q), from one ``finite_cpq_at`` call."""
    spec = GroupSpec.parse(args.group)
    finite_norm, verdict = finite_cpq_at(spec, recip(args.p), recip(args.q))
    payload = {
        "group": spec.describe(),
        "p": args.p,
        "q": args.q,
        "finite_norm": finite_norm,
        "extremal": verdict.extremal,
        "value": finite_norm if verdict.finite else INF,
    }
    return payload, verdict


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


def _sweep_row(w) -> list:
    """One ``sweep`` CSV row of a witness (a ``WitnessPoint`` or a
    ``LacunaryDiscreteWitness``): its attributes named by
    ``WITNESS_SWEEP_HEADER``, in that order.  ``csv.writer`` writes a float
    by ``repr``, None as an empty field and a str or int as it is.

    ``group_size`` is the size of the point's group, except for
    ``lacunary_discrete``: there it is 2^n, the reach of f's support on the
    integers, not the 8 * 2^n points (or ``--grid``) of its quadrature grid."""
    return [getattr(w, name) for name in WITNESS_SWEEP_HEADER]


#: m = ARC_M_FACTOR * k at each point of an arc indicator sweep over k
ARC_M_FACTOR = 200


class Family(NamedTuple):
    """How the CLI builds and sweeps one witness family.  ``witness`` prints
    the witness's fields as JSON and ``sweep`` its ``_sweep_row``."""

    build: Callable  # (args, p, q) -> witness
    required: tuple[str, ...]  # flags that must be given
    sweep: Callable  # sweep value -> {flag: value} for that point


def _sets(flag: str) -> Callable:
    return lambda value: {flag: value}


# Constructors are looked up on ``wit`` at call time, so a wrapper installed
# on the witnesses module (a tracer, say) sees the CLI's calls.
FAMILIES = {
    "arc_indicator": Family(
        lambda a, p, q: wit.arc_indicator_witness(a.k, a.m, p, q),
        ("k", "m"),
        lambda value: {"k": value, "m": value * ARC_M_FACTOR},
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
    return family.build(args, args.p, args.q)


def _cmd_witness(args) -> dict:
    return asdict(_witness(args))


def _cmd_sweep(args) -> None:
    # Every row is computed, in order on the calling thread, before --output
    # is opened, so a usage or capacity error stops the sweep at its first
    # failing point and leaves no partial CSV on stdout and no output file.
    if args.kind == "region":
        if args.side is None or not args.u_values or not args.v_values:
            raise SystemExit2("sweep --kind region needs --side, --u-values, --v-values")
        header = ["u", "v", "side", "label", "finite", "value"]
        spec = GroupSpec.parse(args.group) if args.group else None
        todo = [(u, v) for u in args.u_values for v in args.v_values]

        def one(uv):
            point = _region(args.side, *uv, spec)
            return [point[name] for name in header]

    else:
        if args.family is None or not args.params:
            raise SystemExit2("sweep --kind witness needs --family and --params")
        header = WITNESS_SWEEP_HEADER
        family = FAMILIES[args.family]
        todo = args.params

        def one(value):
            sub = argparse.Namespace(**{**vars(args), **family.sweep(value)})
            return _sweep_row(_witness(sub))

    rows = [one(x) for x in todo]
    with _open_out(args.output) as out:
        csv.writer(out, lineterminator="\n").writerows([header, *rows])


def _cmd_estimate(args) -> dict:
    """``cpq``'s payload under ``estimate``'s names, then the region and two constants."""
    payload, verdict = _cpq(args)
    names = {"finite_norm": "estimate", "value": "closed_form"}
    renamed = {names.get(key, key): value for key, value in payload.items()}
    return {**renamed, "region": verdict.label, "converged": True, "iterations": 0}


def _cmd_uncertainty(args) -> dict:
    if args.unweighted and args.mode != "check":  # no unweighted violator or support bound yet
        raise SystemExit2("--unweighted applies to --mode check only")
    if args.mode == "check":
        if args.p is None or args.q is None:
            raise SystemExit2("mode check needs --p and --q")
        psi = _read_function(args.input)
        if args.unweighted:
            report = unweighted_up_margin(psi, args.p, args.q)
        else:
            report = weighted_up_margin(psi, args.p, args.q)
        return {
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
    if args.mode == "violate":
        if args.p is None or args.q is None or args.target is None:
            raise SystemExit2("mode violate needs --p, --q and --target")
        result = weighted_up_violator(args.target, args.p, args.q, args.side)
        witness_ref = None
        if result.psi is not None and args.output:
            with open(args.output, "w", newline="") as fh:
                write_csv(result.psi, fh)
            witness_ref = args.output
        return {
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
    # mode support
    psi = _read_function(args.input)
    n_t, n_w, product = donoho_stark_check(psi)
    return {
        "mode": "support",
        "group": psi.spec.describe(),
        "support_product": support_measure(psi.spec, n_t, n_w),
        "n_t": n_t,
        "n_w": n_w,
        "product": product,
        "group_size": psi.spec.size,
        "satisfied": product >= psi.spec.size,
    }


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
        # which a power q < 1 inflates (6% at (2, 402) and q = 0.1): zero
        # what the entropies' support rule counts as 0
        fhat.values[~_on_support(fhat.values)] = 0.0
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

    Building it takes about 1.6 ms (best of 50 builds, Python 3.11.7 on a
    2-core host), far more than an ``estimate`` call's own work, so ``main``
    reuses it.  ``parser.subcommands`` maps each subcommand's name to a pair:
    a dict from each of its parser's exact option strings (``--group``,
    ``--p``, ...) to the ``Action`` its ``add_argument`` returned, and the
    handler ``main`` calls on its namespace.  ``_parse_args`` reads
    well-formed arguments from that table and hands anything else to this
    parser's ``parse_args``.  The returned parser is
    shared: do not mutate it
    (add arguments, set defaults).  ``build_parser.__wrapped__()`` builds a
    fresh one.  Reuse is safe because:

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
    parser.subcommands = {}

    def add_subcommand(name, help, handler):
        """The ``add_argument`` of a new subcommand's parser, which also
        files each returned action under its option strings, next to
        ``handler``.  It takes the two kinds of action that ``_read_exact``
        reads, store and ``store_true``, and no other."""
        sp = sub.add_parser(name, help=help)
        options = {}
        parser.subcommands[name] = (options, handler)

        def add(*flags, **kwargs):
            if kwargs.get("action", "store") not in ("store", "store_true"):
                raise ValueError(f"{flags}: only store and store_true options")
            action = sp.add_argument(*flags, **kwargs)
            options.update(dict.fromkeys(action.option_strings, action))

        return add

    add = add_subcommand("info", "describe a group spec", _cmd_info)
    add("--group", required=True)

    add = add_subcommand("transform", "Fourier transform of a CSV function", _cmd_transform)
    add("--input", default="-")
    add("--output", default="-")
    add("--inverse", action="store_true")

    add = add_subcommand("norm", "L^p norm of a CSV function", _cmd_norm)
    add("--input", default="-")
    add("--p", type=_exponent, required=True)

    add = add_subcommand("region", "classify a point in the (1/p, 1/q) plane", _cmd_region)
    add("--side", choices=[COMPACT, DISCRETE], required=True)
    add("--u", type=float, required=True)
    add("--v", type=float, required=True)
    add("--group")

    add = add_subcommand(
        "cpq", "closed-form operator norm, infinite group and finite", lambda a: _cpq(a)[0]
    )
    add("--group", required=True)
    add("--p", type=_exponent, required=True)
    add("--q", type=_exponent, required=True)

    def add_witness_flags(add):
        add("--p", type=_exponent, default=1.0)
        add("--q", type=_exponent, default=1.0)
        add("--k", type=int)
        add("--m", type=int)
        add("--r", type=int)
        add("--n", type=int)
        add("--grid", type=int)

    add = add_subcommand("witness", "evaluate one witness family member", _cmd_witness)
    add("--family", choices=list(FAMILIES), required=True)
    add_witness_flags(add)

    add = add_subcommand("sweep", "CSV sweep over witness parameters or region grid", _cmd_sweep)
    add("--kind", choices=["witness", "region"], default="witness")
    # validated and kept for compatibility; points run in order on one thread
    add("--workers", type=_positive_int, default=1)
    add("--output", default="-")
    add("--family", choices=list(FAMILIES))
    add("--params", type=_int_list, help="comma-separated family parameters")
    add_witness_flags(add)
    add("--side", choices=[COMPACT, DISCRETE])
    add("--u-values", type=_float_list)
    add("--v-values", type=_float_list)
    add("--group")

    add = add_subcommand("estimate", "exact operator norm on the finite group", _cmd_estimate)
    add("--group", required=True)
    add("--p", type=_exponent, required=True)
    add("--q", type=_exponent, required=True)
    no_effect = "accepted for compatibility; has no effect (the norm is exact)"
    add("--seed", type=int, default=0, help=no_effect)
    add("--restarts", type=int, default=32, help=no_effect)
    add("--max-iters", type=int, default=5000, help=no_effect)

    add = add_subcommand("uncertainty", "entropic uncertainty checks", _cmd_uncertainty)
    add("--mode", choices=["check", "violate", "support"], required=True)
    add("--input", default="-")
    add("--p", type=_exponent)
    add("--q", type=_exponent)
    add("--unweighted", action="store_true")
    add("--target", type=float)
    add("--side", choices=[COMPACT, DISCRETE], default=COMPACT)
    add("--output")

    return parser


def _read_exact(options: dict, argv: list[str]) -> dict | None:
    """What a subcommand's parser would set from ``argv``, read straight
    from ``options``, its table of exact option strings, when no argument
    needs a decision of argparse's; else None.

    Each argument must be an exact option string of a store action followed
    by its value, which must not start with ``-``, or of a ``store_true``
    action.  A value goes through the action's ``type`` and then its
    ``choices``, and the last value of a repeated flag wins; an unseen
    action takes its default, all as argparse does.  (argparse would run a
    string default through ``type``; no option has both.)  None when an
    argument is anything else (an abbreviation, ``--p=2``, ``-h``, an
    unknown flag, a stray value), when a value is missing or starts with
    ``-`` (argparse decides by a pattern of its own whether ``-1e9`` is a
    number or a flag), when ``type`` or ``choices`` rejects a value, and when
    a required action is unset."""
    values = {}
    args = iter(argv)
    try:
        for arg in args:
            action = options.get(arg)
            if action is None:
                return None
            if action.nargs == 0 and action.const is True:  # store_true
                values[action.dest] = True
                continue
            value = next(args, "-")
            if action.nargs is not None or value.startswith("-"):
                return None
            if action.type is not None:
                value = action.type(value)
            if action.choices is not None and value not in action.choices:
                return None
            values[action.dest] = value
        for action in options.values():
            if action.dest not in values:
                if action.required:
                    return None
                values[action.dest] = action.default
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    return values


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with the same result, output and
    exit.  When ``argv[0]`` names a subcommand and the rest of ``argv`` is
    well formed, every flag spelled exactly and each value after its flag
    with no leading ``-``, it is read in one pass over the subcommand's
    option table (``_read_exact``).  Everything else, help, errors and
    unusual spellings included, goes to the full top-level parse."""
    parser = build_parser()
    name = argv[0] if argv else None
    options, _ = parser.subcommands.get(name, (None, None))
    values = None if options is None else _read_exact(options, argv[1:])
    if values is None:
        return parser.parse_args(argv)
    return argparse.Namespace(selftest=False, subcommand=name, **values)


def main(argv=None) -> int:
    """Run one CLI command on ``argv`` (default ``sys.argv[1:]``); return its exit code.

    May be called repeatedly in one process; the parser is built on the
    first call (see ``build_parser``).  When ``argv[0]`` names a subcommand,
    the rest of ``argv`` is read from that subcommand's option table when
    every flag is spelled exactly and no value starts with ``-``, and by the
    full parser otherwise (see ``_parse_args``).  An argparse usage error,
    or ``--help``, raises ``SystemExit`` (code 2, or 0 for help) as argparse
    does; every other outcome is returned.
    """
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    if args.selftest:
        return _selftest()
    if args.subcommand is None:
        build_parser().print_usage(sys.stderr)
        return EXIT_USAGE
    _, handler = build_parser().subcommands[args.subcommand]
    try:
        payload = handler(args)
        if payload is not None:
            _emit_json(payload)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except SystemExit2 as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
