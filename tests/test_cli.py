import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import threading
import time
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from abelfourier import cli, transform, uncertainty, witnesses
from abelfourier.cli import FAMILIES, main
from abelfourier.groups import COMPACT, DISCRETE, GroupSpec
from abelfourier.norms import classify, recip
from abelfourier.transform import FREQUENCY, MeasuredFunction, TIME, forward, read_csv, write_csv
from oracles import exponent_value


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_info(capsys):
    payload = run_json(capsys, "info", "--group", "cyclic:2x3;view=discrete;mass=0.5")
    assert payload["orders"] == [2, 3]
    assert payload["size"] == 6
    assert payload["dual_total"] == 2.0


def test_cpq_example(capsys):
    payload = run_json(
        capsys, "cpq", "--group", "cyclic:4;view=compact;mass=1", "--p", "2", "--q", "2"
    )
    assert payload["value"] == 1.0


def test_cpq_infinite_as_string(capsys):
    payload = run_json(
        capsys, "cpq", "--group", "cyclic:4;view=compact;mass=1", "--p", "1", "--q", "1"
    )
    assert payload["value"] == "inf"
    # a finite region whose closed form is past the float range
    payload = run_json(
        capsys, "cpq", "--group", "cyclic:4;view=discrete;mass=1e-10", "--p", "0.001", "--q", "1"
    )
    assert payload["finite_norm"] == "inf"
    assert payload["value"] == "inf"


def test_region_example(capsys):
    payload = run_json(capsys, "region", "--side", "discrete", "--u", "0.25", "--v", "0.8")
    assert payload["label"] == "R3'ext"
    assert payload["finite"] is False


def test_witness_chirp_example(capsys):
    payload = run_json(capsys, "witness", "--family", "chirp", "--r", "2", "--n", "2", "--q", "1")
    assert payload["ratio"] == 4.0


def test_witness_chirp_on_2_40_points(capsys):
    start = time.perf_counter()
    payload = run_json(
        capsys, "witness", "--family", "chirp", "--r", "2", "--n", "20", "--p", "3", "--q", "1.5"
    )
    assert time.perf_counter() - start < 1.0
    assert payload["group_descr"] == GroupSpec((2,) * 40).describe()
    assert abs(payload["ratio"] - payload["prediction"]) <= 1e-12 * payload["prediction"]


# (witness flags, norm_f, norm_fhat, prediction); float stands for any finite value
FLOAT_RANGE_CASES = [
    # ||fhat||_q = 2^(30 (2/q - 1)) on (Z/2)^60 at q = 0.02; this group used to exit 3
    (["chirp", "--r", "2", "--n", "30", "--p", "3", "--q", "0.02"], 1.0, "inf", "inf"),
    # the transform's l^0.01 sum over 10^6 points, raised to the power 100
    (["arc_indicator", "--k", "1", "--m", "1000000", "--p", "3", "--q", "0.01"],
     float, "inf", float),
    (["lacunary_compact", "--m", "1000000", "--p", "3", "--q", "0.01"], float, "inf", "inf"),
    # ||f||_p = 4096^(1 - 100) underflows to 0, so the ratio is past the range
    (["subgroup_indicator", "--r", "2", "--n", "12", "--p", "0.01", "--q", "1"],
     0.0, 4096.0, "inf"),
    # the arc's lower bound has the factor 3^(1/p - 1) = 3^999
    (["arc_indicator", "--k", "1", "--m", "1000", "--p", "0.001", "--q", "1"], 0.0, float, "inf"),
]


def test_witness_norm_past_the_float_range_is_inf(capsys):
    for argv, *wants in FLOAT_RANGE_CASES:
        payload = run_json(capsys, "witness", "--family", *argv)
        for key, want in zip(("norm_f", "norm_fhat", "prediction"), wants):
            ok = isinstance(payload[key], float) if want is float else payload[key] == want
            assert ok, (argv, key, payload[key])
        assert payload["ratio"] == "inf", argv


def test_witness_lacunary_discrete_large_q_is_finite(capsys):
    # |fhat|^3000 overflows unscaled: this once printed "norm_fhat": "inf"
    argv = ["witness", "--family", "lacunary_discrete", "--n", "10", "--p", "3", "--q", "3000"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        payload = run_json(capsys, *argv)
    # |P| at the 8 * 2^10 grid angles, P(theta) = sum_k k^(-1/2) e^{i 2^k theta},
    # each phase 2^k x reduced mod the grid on integers
    grid, k = 8 * 2**10, np.arange(1, 11)
    phases = np.outer(2**k, np.arange(grid)) % grid
    mags = np.abs(np.exp(2j * np.pi * phases / grid).T @ (1.0 / np.sqrt(k)))
    want = mags.max() * float(np.mean((mags / mags.max()) ** 3000.0)) ** (1.0 / 3000.0)
    assert isinstance(payload["norm_fhat"], float)
    assert payload["norm_fhat"] == pytest.approx(want, rel=1e-12)


def test_witness_missing_flags_usage_error(capsys):
    code, _, err = run(capsys, "witness", "--family", "chirp", "--q", "1")
    assert code == 2
    assert "needs" in err


# family, flags a sweep value does not set, two sweep values, the flags a
# sweep value sets (an arc sweep's m is 200 k)
FAMILY_CASES = [
    ("arc_indicator", {}, (1, 2), lambda v: {"k": v, "m": 200 * v}),
    ("subgroup_indicator", {"r": 2}, (2, 3), lambda v: {"n": v}),
    ("full_orbit", {}, (4, 8), lambda v: {"m": v}),
    ("chirp", {"r": 2}, (1, 2), lambda v: {"n": v}),
    ("lacunary_compact", {}, (8, 16), lambda v: {"m": v}),
    ("lacunary_discrete", {}, (3, 4), lambda v: {"n": v}),
    ("clt_delta", {"r": 3}, (2, 3), lambda v: {"n": v}),
]
PQ = ["--p", "3", "--q", "1.5"]  # lacunary_discrete needs p > 2


def _flag_args(flags):
    return [a for name, value in flags.items() for a in (f"--{name}", str(value))]


def test_family_cases_cover_every_family():
    assert [case[0] for case in FAMILY_CASES] == list(FAMILIES)


@pytest.mark.parametrize(
    "family, fixed, values, swept", FAMILY_CASES, ids=[case[0] for case in FAMILY_CASES]
)
def test_witness_family(capsys, family, fixed, values, swept):
    required = {**fixed, **swept(values[-1])}
    payload = run_json(capsys, "witness", "--family", family, *PQ, *_flag_args(required))
    assert payload["param_n"] == values[-1]
    for name in required:
        rest = {k: v for k, v in required.items() if k != name}
        code, _, err = run(capsys, "witness", "--family", family, *PQ, *_flag_args(rest))
        assert code == 2
        assert f"--{name}" in err

    code, out, err = run(
        capsys, "sweep", "--family", family, "--params", ",".join(map(str, values)),
        *PQ, *_flag_args(fixed),
    )
    assert code == 0, err
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert len(rows) == len(values)
    for row, value in zip(rows, values):
        point = run_json(
            capsys, "witness", "--family", family, *PQ, *_flag_args({**fixed, **swept(value)})
        )
        assert row[:2] == [family, str(point["param_n"])]
        assert [float(x) for x in row[5:8]] == [
            point["norm_f"], point["norm_fhat"], point["ratio"]
        ]


# stdout of ``witness`` and ``sweep --kind witness`` for every family, pinned
# byte for byte; lacunary_discrete at its default (even) grid and an odd one.
GOLDEN = json.loads((Path(__file__).with_name("witness_stdout.json")).read_text())
_FLOAT = re.compile(r"-?\d+(?:\.\d+)?e[-+]?\d+|-?\d+\.\d+")


def _float_fingerprint() -> str:
    """A digest of the float routines that the witnesses run, on fixed inputs.
    The pinned bytes were written where it reads ``GOLDEN["fingerprint"]``;
    elsewhere (another numpy, libm or SIMD path) a last bit may differ."""
    x = np.linspace(0.1, 20.0, 101)
    parts = [
        np.sin(x), np.cos(x), np.exp(1j * x).view(np.float64), np.log(x), np.sqrt(x),
        x**1.5, np.abs(np.fft.ifft(x + 1j)), [float(v) ** (1 / 3) for v in x],
    ]
    return hashlib.sha256(np.concatenate(parts).tobytes()).hexdigest()


def _golden_id(case):
    argv = case["argv"]
    grid = f"-grid{argv[argv.index('--grid') + 1]}" if "--grid" in argv else ""
    return f"{argv[0]}-{argv[argv.index('--family') + 1]}{grid}"


def test_golden_cases_cover_every_family():
    covered = {_golden_id(case).split("-grid")[0] for case in GOLDEN["cases"]}
    assert covered == {f"{cmd}-{family}" for cmd in ("witness", "sweep") for family in FAMILIES}
    assert {_golden_id(case) for case in GOLDEN["cases"]} >= {
        "witness-lacunary_discrete-grid515", "sweep-lacunary_discrete-grid129"
    }


@pytest.mark.parametrize("case", GOLDEN["cases"], ids=_golden_id)
def test_witness_stdout_is_pinned(capsys, case):
    code, out, err = run(capsys, *case["argv"])
    assert code == 0, err
    want = case["stdout"]
    if GOLDEN["fingerprint"] == _float_fingerprint():
        assert out == want
    else:  # the same text, and each float within a few last bits
        assert _FLOAT.split(out) == _FLOAT.split(want)
        for got, pinned in zip(_FLOAT.findall(out), _FLOAT.findall(want)):
            assert float(got) == pytest.approx(float(pinned), rel=1e-12), (got, pinned)


LACUNARY_SWEEP = ["sweep", "--family", "lacunary_compact", "--p", "3", "--q", "1.5", "--params"]


def test_lacunary_sweep_is_the_same_whatever_the_coefficient_table_holds(capsys, monkeypatch):
    """The kept coefficient table serves each a_n from wherever it was first
    computed: the same bytes on a fresh table, on one already grown past
    every point, and with the points descending."""
    monkeypatch.setattr(witnesses, "_lacunary_table", witnesses._lacunary_table[:2])
    fresh = run(capsys, *LACUNARY_SWEEP, "16,256,4096,65536")
    assert fresh[0] == 0, fresh[2]
    assert run(capsys, *LACUNARY_SWEEP, "65536")[0] == 0
    assert run(capsys, *LACUNARY_SWEEP, "16,256,4096,65536") == fresh
    monkeypatch.setattr(witnesses, "_lacunary_table", witnesses._lacunary_table[:2])
    code, out, err = run(capsys, *LACUNARY_SWEEP, "65536,4096,256,16")
    header, *rows = out.splitlines(keepends=True)
    assert (code, header + "".join(reversed(rows)), err) == fresh


# Per family, two sweep values whose group is past the 2^20 cap: one just
# past it and one past the 2^62 that GroupSpec accepts.  The subgroup
# indicator and the chirp build nothing (their norms are closed forms), so
# just past 2^20 they answer (exit 0); they exit 3 past 2^62, or when r
# itself is past 2^20.
PAST_CAP = {
    "arc_indicator": (5243, 10**17),  # m = 200 k
    "subgroup_indicator": (21, 63),  # 2^n
    "full_orbit": (2**20 + 1, 10**19),
    "chirp": (11, 32),  # 2^2n
    "lacunary_compact": (2**20 + 1, 10**19),
    "lacunary_discrete": (18, 60),  # a grid of 8 * 2^n points
    "clt_delta": (13, 40),  # 3^n
}
SEPARABLE = ("subgroup_indicator", "chirp")
LEAST_PRIME_PAST_CAP = 1048583


def _past_cap_cases(family, fixed):
    """(flags a sweep value does not set, sweep value, exit code) past the cap."""
    just_past, past_range = PAST_CAP[family]
    if family not in SEPARABLE:
        return [(fixed, just_past, 3), (fixed, past_range, 3)]
    return [(fixed, just_past, 0), (fixed, past_range, 3),
            ({**fixed, "r": LEAST_PRIME_PAST_CAP}, 1, 3)]


@pytest.mark.parametrize(
    "family, fixed, values, swept", FAMILY_CASES, ids=[case[0] for case in FAMILY_CASES]
)
def test_every_family_exits_3_past_the_cap(capsys, family, fixed, values, swept):
    for flags, value, want in _past_cap_cases(family, fixed):
        for argv in (
            ["witness", "--family", family, *PQ, *_flag_args({**flags, **swept(value)})],
            ["sweep", "--family", family, "--params", str(value), *PQ, *_flag_args(flags)],
        ):
            start = time.perf_counter()
            code, out, err = run(capsys, *argv)
            assert time.perf_counter() - start < 1.0, argv
            if want == 3:
                assert (code, out) == (3, ""), argv
                assert err.startswith("capacity error: group (Z/") and "Traceback" not in err
                continue
            assert code == 0, err
            if argv[0] == "witness":
                ratio, prediction = (json.loads(out)[k] for k in ("ratio", "prediction"))
            else:
                ratio, prediction = map(float, list(csv.reader(io.StringIO(out)))[1][7:9])
            assert abs(ratio - prediction) <= 1e-12 * prediction, argv


@pytest.mark.parametrize("family", ["subgroup_indicator", "chirp", "clt_delta"])
def test_huge_prime_r_exits_3_at_once(capsys, family):
    """r = 2^61 - 1 is prime: the cap on r is checked before trial division,
    which would take minutes."""
    for argv in (
        ["witness", "--family", family, "--r", "2305843009213693951", "--n", "1", *PQ],
        ["sweep", "--family", family, "--r", "2305843009213693951", "--params", "1", *PQ],
    ):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0, argv
        assert (code, out) == (3, ""), argv
        assert err.startswith("capacity error: group (Z/2305843009213693951)^1 ")


@pytest.mark.parametrize("family", ["subgroup_indicator", "chirp", "clt_delta"])
@pytest.mark.parametrize("r, want", [(4, 2), (2**21, 3)], ids=["composite", "composite_past_cap"])
def test_composite_r_exits_2_within_the_cap_and_3_past_it(capsys, family, r, want):
    code, out, _ = run(capsys, "witness", "--family", family, "--r", str(r), "--n", "1", *PQ)
    assert (code, out) == (want, "")


def test_witness_clt_delta_json_keys(capsys):
    payload = run_json(capsys, "witness", "--family", "clt_delta", "--r", "3", "--n", "3")
    assert list(payload) == [
        "family", "param_n", "group_descr", "p", "q", "norm_f", "norm_fhat", "ratio",
        "prediction", "prediction_kind", "tail_probability", "threshold", "sigma_sq",
    ]


def test_capacity_exit_code(capsys):
    code, _, err = run(
        capsys, "witness", "--family", "subgroup_indicator", "--r", "1048583", "--n", "1",
        "--p", "1", "--q", "1",
    )
    assert code == 3


def test_transform_roundtrip(tmp_path, capsys):
    spec = GroupSpec.parse("cyclic:3x2;view=compact;mass=1")
    rng = np.random.default_rng(0)
    f = MeasuredFunction(spec, TIME, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    src = tmp_path / "f.csv"
    mid = tmp_path / "fhat.csv"
    back = tmp_path / "f2.csv"
    src.write_text(write_csv(f))
    code, _, err = run(capsys, "transform", "--input", str(src), "--output", str(mid))
    assert code == 0, err
    code, _, err = run(capsys, "transform", "--inverse", "--input", str(mid), "--output", str(back))
    assert code == 0, err
    g = read_csv(back.read_text())
    assert np.max(np.abs(g.values - f.values)) < 1e-10


def test_transform_streams_same_bytes_to_stdout_and_file(tmp_path, capsys):
    spec = GroupSpec.parse("cyclic:4x3;view=discrete;mass=0.5")
    rng = np.random.default_rng(1)
    f = MeasuredFunction(spec, TIME, rng.standard_normal(12) + 1j * rng.standard_normal(12))
    src = tmp_path / "f.csv"
    dst = tmp_path / "fhat.csv"
    src.write_text(write_csv(f))
    code, out, err = run(capsys, "transform", "--input", str(src))
    assert code == 0, err
    code, _, err = run(capsys, "transform", "--input", str(src), "--output", str(dst))
    assert code == 0, err
    assert out == dst.read_text() == write_csv(forward(f))


@pytest.mark.parametrize("argv, group, side", [
    (["transform"], "cyclic:2;view=compact;mass=1", TIME),
    (["transform", "--inverse"], "cyclic:3", FREQUENCY),
], ids=["forward", "inverse"])
def test_transform_past_the_float_range_exits_3(tmp_path, capsys, argv, group, side):
    """Finite values whose transform overflows are a capacity error, not a
    usage error, and print no numpy warning."""
    spec = GroupSpec.parse(group)
    src, dst = tmp_path / "f.csv", tmp_path / "g.csv"
    src.write_text(write_csv(MeasuredFunction(spec, side, np.full(spec.size, 1e308))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, *argv, "--input", str(src), "--output", str(dst))
    assert (code, out) == (3, "")
    assert err == ("capacity error: the transform overflows the float range"
                   " (magnitudes past 1.798e+308)\n")
    assert not dst.exists()


# Every command that reads a function CSV, on unit-L2 files (the constant 1
# on a compact group of mass 1) and a random one.
_FUNCTION_COMMANDS = [
    ["transform"],
    ["transform", "--inverse"],
    *(["norm", "--p", p] for p in ("0.5", "1", "2", "inf")),
    ["uncertainty", "--mode", "check", "--p", "1.5", "--q", "3"],
    ["uncertainty", "--mode", "check", "--unweighted", "--p", "1", "--q", "2"],
    ["uncertainty", "--mode", "support"],
]


@pytest.mark.parametrize("k", sorted({*range(-1074, 1024, 97), -1074, -1022, -512, 0, 511, 512,
                                      600, 1000, 1020, 1023}))
def test_function_commands_scaled_across_the_float_range_exit_cleanly(tmp_path, capsys, k):
    """Scaled by 2^k anywhere in the float range, every function file makes
    every command exit 0, 2 or 3 (no exception escapes ``main``), with no
    warning and no traceback."""
    rng = np.random.default_rng(7)
    files = []
    for group, values in [
        ("cyclic:4x3", np.ones(12)),
        ("cyclic:2", np.ones(2)),
        ("cyclic:4x3;view=discrete;mass=0.5", rng.uniform(-1, 1, 12) + 1j * rng.uniform(-1, 1, 12)),
    ]:
        scaled = np.ldexp(values.real, k) + 1j * np.ldexp(values.imag, k)
        files.append(tmp_path / f"f{len(files)}.csv")
        files[-1].write_text(write_csv(MeasuredFunction(GroupSpec.parse(group), TIME, scaled)))
    for src in files:
        for argv in _FUNCTION_COMMANDS:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, _, err = run(capsys, *argv, "--input", str(src))
            assert code in (0, 2, 3) and "Traceback" not in err, (k, src.name, argv, code, err)


def test_uncertainty_check_past_the_float_range_is_usage_error(tmp_path, capsys):
    """A squared L2 mass past the float range fails the unit-mass check
    (exit 2) weighted and unweighted, instead of overflowing."""
    src = tmp_path / "big.csv"
    spec = GroupSpec.parse("cyclic:2;view=compact;mass=1")
    src.write_text(write_csv(MeasuredFunction(spec, TIME, np.full(2, 1e308))))
    for flags in ([], ["--unweighted"]):
        code, out, err = run(capsys, "uncertainty", "--mode", "check", *flags,
                             "--p", "1.5", "--q", "3", "--input", str(src))
        assert (code, out) == (2, "")
        assert err == "error: psi must have unit L2 norm; got squared mass inf\n"


def test_cli_builds_each_shapes_key_table_once(tmp_path, capsys, monkeypatch):
    """A transform reads and writes one shape, and in-process calls on one
    file reuse its key table; a second shape builds its own."""
    first, second = tmp_path / "f0.csv", tmp_path / "f1.csv"
    for path, orders in [(first, (4, 3)), (second, (5,))]:
        spec = GroupSpec(orders=orders)  # compact, mass 1: the constant 1 has unit L2 norm
        path.write_text(write_csv(MeasuredFunction(spec, TIME, np.ones(spec.size))))
    built = []
    index_keys = transform._index_keys

    def spy(orders):
        built.append(orders)
        return index_keys(orders)

    monkeypatch.setattr(transform, "_index_keys", spy)
    transform._key_table.cache_clear()
    out = str(tmp_path / "out.csv")
    assert run(capsys, "transform", "--input", str(first), "--output", out)[0] == 0
    assert built == [(4, 3)]
    for argv in (["transform"], ["norm", "--p", "2"], ["uncertainty", "--mode", "support"],
                 ["uncertainty", "--mode", "check", "--p", "1.5", "--q", "3"]):
        assert run(capsys, *argv, "--input", str(first))[0] == 0
    assert built == [(4, 3)]
    assert run(capsys, "transform", "--input", str(second), "--output", out)[0] == 0
    assert built == [(4, 3), (5,)]


def test_norm_subcommand(tmp_path, capsys):
    spec = GroupSpec.parse("cyclic:4;view=discrete;mass=1")
    f = MeasuredFunction(spec, TIME, np.ones(4, dtype=np.complex128))
    src = tmp_path / "f.csv"
    src.write_text(write_csv(f))
    payload = run_json(capsys, "norm", "--input", str(src), "--p", "1")
    assert payload["norm"] == 4.0
    payload = run_json(capsys, "norm", "--input", str(src), "--p", "inf")
    assert payload["norm"] == 1.0


def test_estimate_json_shape(capsys):
    payload = run_json(
        capsys, "estimate", "--group", "cyclic:3;view=discrete;mass=1", "--p", "1", "--q", "1",
        "--restarts", "4",
    )
    assert set(payload) == {
        "group", "p", "q", "estimate", "extremal", "closed_form", "region", "converged",
        "iterations",
    }
    assert payload["region"] == "R2'"
    assert abs(payload["estimate"] - 1.0) < 1e-6


@pytest.mark.parametrize(
    "group, p, q, expected, extremal",
    [
        ("cyclic:16x16", "6", "0.8", 64.0, "bi_unimodular"),
        ("cyclic:16x16", "1.2", "1.5", 16.0, "delta"),
        ("cyclic:5;view=compact", "4", "1.5", 5 ** (1 / 6), "bi_unimodular"),
        # 2^21 points, past the exhaustive cap: no witness is built
        ("cyclic:2048x1024", "6", "0.8", 2.0 ** (21 * 0.75), "bi_unimodular"),
    ],
)
def test_estimate_is_exact_and_exits_0(capsys, group, p, q, expected, extremal):
    payload = run_json(capsys, "estimate", "--group", group, "--p", p, "--q", q)
    assert payload["estimate"] == pytest.approx(expected, rel=1e-12)
    assert payload["extremal"] == extremal
    assert payload["converged"] is True and payload["iterations"] == 0


def test_estimate_builds_no_extremal_function(monkeypatch, capsys):
    argv = ["estimate", "--group", "cyclic:16x16", "--p", "6", "--q", "0.8"]
    _, expected, _ = run(capsys, *argv)

    def refuse(spec):
        raise AssertionError("estimate built an extremal function")

    for family in witnesses.EXTREMALS:
        monkeypatch.setitem(witnesses.EXTREMALS, family, refuse)
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert out == expected


def test_estimate_search_flags_have_no_effect(capsys):
    base = ["estimate", "--group", "cyclic:4x6;view=discrete;mass=0.5", "--p", "6", "--q", "0.8"]
    _, plain, _ = run(capsys, *base)
    code, flagged, err = run(capsys, *base, "--seed", "3", "--restarts", "1", "--max-iters", "1")
    assert code == 0, err
    assert flagged == plain


def test_cpq_reports_finite_norm_and_extremal(capsys):
    code, out, err = run(capsys, "cpq", "--group", "cyclic:16x16", "--p", "6", "--q", "0.8")
    assert code == 0, err
    payload = json.loads(out)
    assert payload["finite_norm"] == pytest.approx(64.0, rel=1e-12)
    assert payload["extremal"] == "bi_unimodular"
    assert payload["value"] == "inf"  # the infinite-group norm, as before
    assert out.endswith('  "value": "inf"\n}\n')


@pytest.mark.parametrize(
    "group, p, q, want",
    [("cyclic:6;view=discrete;mass=2.5", "1", "1", "0.4"),
     ("cyclic:6;view=compact;mass=0.3", "1.5", "3", "1.0")],
)
def test_cpq_prints_the_finite_region_norm_once(capsys, group, p, q, want):
    code, out, err = run(capsys, "cpq", "--group", group, "--p", p, "--q", q)
    assert code == 0, err
    assert f'  "finite_norm": {want},\n' in out
    assert out.endswith(f'  "value": {want}\n}}\n')


@st.composite
def _finite_region_point(draw):
    """(side, u, v) on the finite region of side, its edges included."""
    side = draw(st.sampled_from([COMPACT, DISCRETE]))
    if side == COMPACT:
        v = draw(st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 0.5, allow_subnormal=False)))
        top = 1.0 - v
        u = draw(st.one_of(st.sampled_from([0.0, top]), st.floats(0.0, top, allow_subnormal=False)))
    else:
        u = draw(st.one_of(st.sampled_from([0.5, 1.0]), st.floats(0.5, 3.0)))
        low = max(0.0, 1.0 - u)
        v = draw(st.one_of(st.just(low), st.floats(low, 3.0, allow_subnormal=False)))
    return side, u, v


def _cli_out(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    point=_finite_region_point(),
    mass=st.floats(1e-3, 1e3),
    orders=st.lists(st.integers(2, 64), min_size=1, max_size=3),
)
def test_finite_region_commands_print_one_float_for_the_norm(point, mass, orders):
    side, u, v = point
    p, q = exponent_value(u), exponent_value(v)
    u, v = recip(p), recip(q)  # what cpq and estimate compare
    assume(classify(side, u, v).finite)
    group = "cyclic:" + "x".join(map(str, orders)) + f";view={side};mass={mass!r}"
    pq = ("--p", repr(p), "--q", repr(q))
    cpq = json.loads(_cli_out("cpq", "--group", group, *pq))
    assert cpq["value"] == cpq["finite_norm"]
    est = json.loads(_cli_out("estimate", "--group", group, *pq))
    assert est["closed_form"] == est["estimate"] == cpq["finite_norm"]
    uv = ("--side", side, "--group", group)
    region = json.loads(_cli_out("region", "--u", repr(u), "--v", repr(v), *uv))
    assert region["value"] == cpq["finite_norm"]
    sweep = _cli_out("sweep", "--kind", "region", "--u-values", repr(u), "--v-values", repr(v), *uv)
    assert sweep.splitlines()[1].split(",")[-1] == repr(float(cpq["finite_norm"]))


@pytest.mark.parametrize("level", [1e-3, 1e3])
def test_norm_at_large_p(tmp_path, capsys, level):
    spec = GroupSpec.parse("cyclic:72;view=discrete;mass=1")
    src = tmp_path / "f.csv"
    src.write_text(write_csv(MeasuredFunction(spec, TIME, np.full(72, level, dtype=np.complex128))))
    payload = run_json(capsys, "norm", "--input", str(src), "--p", "200")
    assert payload["norm"] == pytest.approx(level * 72 ** (1 / 200), rel=1e-12)


def test_sweep_witness_csv(capsys):
    code, out, err = run(
        capsys, "sweep", "--kind", "witness", "--family", "full_orbit",
        "--params", "4,8,16", "--p", "1", "--q", "1",
    )
    assert code == 0, err
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == [
        "family", "param_n", "group_size", "p", "q", "norm_f", "norm_fhat",
        "ratio", "prediction", "prediction_kind",
    ]
    assert [r[1] for r in rows[1:]] == ["4", "8", "16"]


@pytest.mark.parametrize("grid", [[], ["--grid", "256"]], ids=["default_grid", "grid256"])
def test_sweep_lacunary_discrete_group_size_is_the_support_reach(capsys, grid):
    """The README's claim: 2^n, not the quadrature grid's point count."""
    code, out, err = run(
        capsys, "sweep", "--kind", "witness", "--family", "lacunary_discrete",
        "--params", "3,4", "--p", "3", "--q", "1.5", *grid,
    )
    assert code == 0, err
    rows = list(csv.reader(io.StringIO(out)))
    assert [r[2] for r in rows[1:]] == ["8", "16"]


def test_sweep_deterministic_across_workers(capsys):
    args = [
        "sweep", "--kind", "witness", "--family", "subgroup_indicator",
        "--r", "2", "--params", "2,3,4,5", "--p", "1", "--q", "2",
    ]
    _, out1, _ = run(capsys, *args, "--workers", "1")
    _, out4, _ = run(capsys, *args, "--workers", "4")
    assert out1 == out4


# every family's pinned sweep (2-3 points each) and a 4-point region sweep
WORKER_SWEEPS = [
    *[pytest.param(c["argv"], id=_golden_id(c)) for c in GOLDEN["cases"] if c["argv"][0] == "sweep"],
    pytest.param(["sweep", "--kind", "region", "--side", "compact", "--u-values", "0.25,0.75",
                  "--v-values", "0.25,0.75", "--group", "cyclic:4;view=compact;mass=1"],
                 id="sweep-region"),
]


@pytest.mark.parametrize("argv", WORKER_SWEEPS)
def test_sweep_stdout_is_the_same_at_every_worker_count(capsys, argv):
    outs = set()
    for workers in ("1", "2", "3", "8"):
        # a later --workers overrides one in argv
        code, out, err = run(capsys, *argv, "--workers", workers)
        assert code == 0, err
        outs.add(out)
    assert len(outs) == 1


@pytest.mark.parametrize("workers", ["1", "2", "3", "8"])
@pytest.mark.parametrize(
    "params, want",
    [
        ("1,2000000", (2, "error: m must be >= 2\n")),
        ("2000000,1", (3, "capacity error: group (Z/2000000)^1 has more than 1048576 "
                          "elements, the exhaustive cap\n")),
    ],
)
def test_sweep_fails_as_its_first_failing_point(capsys, params, want, workers):
    """Both points fail; the exit code and message are the first point's."""
    code, out, err = run(capsys, "sweep", "--family", "full_orbit", "--params", params,
                         "--workers", workers)
    assert (code, err) == want
    assert out == ""


def test_sweep_starts_no_thread(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    for workers in ("1", "2", "8"):
        code, out, err = run(capsys, "sweep", "--family", "full_orbit", "--params", "4,8,16",
                             "--workers", workers)
        assert code == 0, err
        assert len(out.splitlines()) == 4


def test_sweep_starts_no_point_after_a_failure(capsys, monkeypatch):
    built = []
    full_orbit = witnesses.full_orbit_witness

    def counting(m, *args):
        built.append(m)
        return full_orbit(m, *args)

    monkeypatch.setattr(witnesses, "full_orbit_witness", counting)
    for workers in ("1", "2", "8"):
        built.clear()
        code, out, err = run(capsys, "sweep", "--family", "full_orbit", "--params", "8,1,16",
                             "--workers", workers)
        assert (code, out, err) == (2, "", "error: m must be >= 2\n")
        assert built == [8, 1], workers


@pytest.mark.parametrize("n", ["0", "-3"])
@pytest.mark.parametrize("family", ["subgroup_indicator", "chirp", "clt_delta"])
def test_prime_families_reject_n_below_one(capsys, family, n):
    """After the cap on r and its primality, as the README orders the checks."""
    for argv in (["witness", "--family", family, "--r", "3", "--n", n],
                 ["sweep", "--family", family, "--r", "3", "--params", f"2,{n}"]):
        assert run(capsys, *argv) == (2, "", "error: n must be >= 1\n"), argv
    assert run(capsys, "witness", "--family", family, "--r", "4", "--n", n) == (
        2, "", "error: r=4 must be prime\n")
    code, out, err = run(capsys, "witness", "--family", family, "--r", "2000003", "--n", n)
    assert (code, out) == (3, "") and err.startswith("capacity error: "), err


def _run_fresh(code):
    """Runs ``code`` in a fresh interpreter that imports this checkout's package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_cli_import_leaves_concurrent_futures_unloaded():
    _run_fresh("import abelfourier.cli, sys; assert 'concurrent.futures' not in sys.modules")


def test_package_import_leaves_the_estimator_unloaded():
    _run_fresh("import abelfourier, sys; assert 'abelfourier.estimator' not in sys.modules")


def test_sweep_region_csv(capsys):
    code, out, err = run(
        capsys, "sweep", "--kind", "region", "--side", "compact",
        "--u-values", "0.25,0.75", "--v-values", "0.25,0.75",
        "--group", "cyclic:4;view=compact;mass=1",
    )
    assert code == 0, err
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["u", "v", "side", "label", "finite", "value"]
    assert len(rows) == 5
    labels = [r[3] for r in rows[1:]]
    assert labels == ["R1", "R3", "R1", "R2"]


def test_sweep_usage_errors(capsys):
    for kind, needs in (
        ("witness", "--family and --params"), ("region", "--side, --u-values, --v-values")
    ):
        code, out, err = run(capsys, "sweep", "--kind", kind)
        assert (code, out) == (2, "")
        assert err == f"usage error: sweep --kind {kind} needs {needs}\n"


def test_uncertainty_check(tmp_path, capsys):
    spec = GroupSpec.parse("cyclic:4;view=discrete;mass=1")
    vals = np.zeros(4, dtype=np.complex128)
    vals[0] = 1.0
    src = tmp_path / "psi.csv"
    src.write_text(write_csv(MeasuredFunction(spec, TIME, vals)))
    payload = run_json(
        capsys, "uncertainty", "--mode", "check", "--input", str(src), "--p", "1.5", "--q", "3",
    )
    assert payload["satisfied"] is True
    assert abs(payload["margin"]) <= 1e-12
    payload = run_json(
        capsys, "uncertainty", "--mode", "check", "--unweighted",
        "--input", str(src), "--p", "1", "--q", "2",
    )
    assert payload["satisfied"] is True


def test_uncertainty_violate(tmp_path, capsys):
    out_path = tmp_path / "witness.csv"
    payload = run_json(
        capsys, "uncertainty", "--mode", "violate", "--target", "-1",
        "--p", str(1 / 0.9), "--q", "2.5", "--side", "compact",
        "--output", str(out_path),
    )
    assert payload["achieved"] is True
    assert payload["value"] <= -1
    assert payload["materialized"] is True
    psi = read_csv(out_path.read_text())
    assert psi.spec.size == 2 ** payload["param_n"]


@pytest.mark.parametrize(
    "side, p, q, param_n, group",
    [
        ("compact", "1.111", "2.5", 241, "cyclic:" + "x".join(["2"] * 241) + ";view=compact;mass=1"),
        ("discrete", str(1 / 0.6), "5", 361, f"cyclic:{2**361};view=discrete;mass=1"),
    ],
    ids=["compact", "discrete"],
)
def test_uncertainty_violate_past_machine_range(tmp_path, capsys, side, p, q, param_n, group):
    out_path = tmp_path / "witness.csv"
    payload = run_json(
        capsys, "uncertainty", "--mode", "violate", "--target", "-50",
        "--p", p, "--q", q, "--side", side, "--output", str(out_path),
    )
    assert payload["param_n"] == param_n
    assert payload["group"] == group
    assert payload["achieved"] is True
    assert payload["materialized"] is False
    assert payload["witness"] is None
    assert not out_path.exists()


def test_uncertainty_violate_past_int_str_digit_limit(capsys):
    # 2^14427 has 4343 decimal digits, past the interpreter's default limit
    # of 4300 for int-to-str conversion.
    payload = run_json(
        capsys, "uncertainty", "--mode", "violate", "--target", "-2000",
        "--p", "1.6666666666666667", "--q", "5", "--side", "discrete",
    )
    assert payload["param_n"] == 14427
    assert payload["materialized"] is False
    factor, rest = payload["group"].split(";", 1)
    assert rest == "view=discrete;mass=1"
    assert factor.startswith("cyclic:")
    assert int(Decimal(factor[len("cyclic:"):])) == 2**14427


@pytest.mark.parametrize("content", ["", "cyclic:4;view=compact;mass=1,time\n"],
                         ids=["empty", "header_only"])
@pytest.mark.parametrize(
    "argv",
    [
        ["transform"],
        ["norm", "--p", "2"],
        ["uncertainty", "--mode", "check", "--p", "1.5", "--q", "3"],
        ["uncertainty", "--mode", "support"],
    ],
    ids=["transform", "norm", "uncertainty_check", "uncertainty_support"],
)
def test_truncated_function_csv_is_usage_error(tmp_path, capsys, argv, content):
    src = tmp_path / "f.csv"
    src.write_text(content)
    code, out, err = run(capsys, *argv, "--input", str(src))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("body", ["", "\n\n"], ids=["no_rows", "blank_lines"])
def test_function_csv_without_value_rows_exits_2_without_warnings(tmp_path, capsys, body):
    src = tmp_path / "f.csv"
    src.write_text("cyclic:4;view=compact;mass=1,time\nindex_tuple,re,im\n" + body)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "norm", "--p", "2", "--input", str(src))
    assert (code, out, err) == (2, "", "error: expected 4 value rows, got 0\n")


# The same cases as test_fourier.MALFORMED_ROWS, each on cyclic:4.
_MALFORMED_ROWS = {
    "duplicate_and_missing": ['"(0,)",1,0', '"(0,)",1,0', '"(2,)",1,0', '"(3,)",1,0'],
    "two_fields": ['"(0,)",1', '"(1,)",1,0', '"(2,)",1,0', '"(3,)",1,0'],
    "unclosed_tuple": ['"(0,",1,0', '"(1,)",1,0', '"(2,)",1,0', '"(3,)",1,0'],
    "float_coordinate": ['"(0.5,)",1,0', '"(1,)",1,0', '"(2,)",1,0', '"(3,)",1,0'],
    "missing_close_paren": ['"(0",1,0', '"(1,)",1,0', '"(2,)",1,0', '"(3,)",1,0'],
}


@pytest.mark.parametrize("rows", _MALFORMED_ROWS.values(), ids=_MALFORMED_ROWS.keys())
@pytest.mark.parametrize("argv", [["norm", "--p", "2"], ["transform"]], ids=["norm", "transform"])
def test_malformed_function_csv_is_usage_error(tmp_path, capsys, argv, rows):
    src = tmp_path / "f.csv"
    src.write_text("\n".join(["cyclic:4;view=compact;mass=1,time", "index_tuple,re,im", *rows]) + "\n")
    code, out, err = run(capsys, *argv, "--input", str(src))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


# A field longer than csv.field_size_limit() (131072 characters), in a key
# and in the header row, makes csv.reader raise csv.Error.
_OVERSIZE_FIELD = {
    "key": ["cyclic:4;view=compact;mass=1,time", "index_tuple,re,im",
            '"' + " " * 200000 + '",1,0', '"(1,)",1,0', '"(2,)",1,0', '"(3,)",1,0'],
    "spec": ["c" * 200000 + ",time", "index_tuple,re,im"],
}


@pytest.mark.parametrize("lines", _OVERSIZE_FIELD.values(), ids=_OVERSIZE_FIELD.keys())
def test_oversize_csv_field_is_usage_error(tmp_path, capsys, lines):
    src = tmp_path / "f.csv"
    src.write_text("\n".join(lines) + "\n")
    code, out, err = run(capsys, "norm", "--p", "2", "--input", str(src))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [["norm", "--p", "2"], ["transform"]], ids=["norm", "transform"])
def test_function_csv_with_byte_order_mark_reads_from_file_and_stdin(tmp_path, monkeypatch, capsys, argv):
    """A file saved as "CSV UTF-8" starts with a byte-order mark; it reads as
    the file without one, from a path and from stdin."""
    spec = GroupSpec.parse("cyclic:3x2;view=compact;mass=1")
    text = write_csv(MeasuredFunction(spec, TIME, np.arange(6) - 0.5j))
    plain, marked = tmp_path / "f.csv", tmp_path / "f_bom.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    want = run(capsys, *argv, "--input", str(plain))
    assert want[0] == 0, want
    assert run(capsys, *argv, "--input", str(marked)) == want
    monkeypatch.setattr(sys, "stdin", io.StringIO("\ufeff" + text))
    assert run(capsys, *argv, "--input", "-") == want


def test_uncertainty_check_rejects_missing_exponents_before_reading(monkeypatch, capsys):
    class Unreadable(io.StringIO):
        def read(self, *args):
            raise AssertionError("stdin was read")

    monkeypatch.setattr(sys, "stdin", Unreadable())
    code, _, err = run(capsys, "uncertainty", "--mode", "check")
    assert code == 2
    assert "needs --p and --q" in err


def test_uncertainty_support(tmp_path, capsys):
    spec = GroupSpec.parse("cyclic:8;view=compact;mass=1")
    rng = np.random.default_rng(5)
    f = MeasuredFunction(spec, TIME, rng.standard_normal(8) + 1j * rng.standard_normal(8))
    src = tmp_path / "psi.csv"
    src.write_text(write_csv(f))
    payload = run_json(capsys, "uncertainty", "--mode", "support", "--input", str(src))
    assert payload["product"] >= 8
    assert payload["support_product"] >= 1 - 1e-12


def test_uncertainty_support_transforms_once(tmp_path, capsys, monkeypatch):
    calls = []

    def counting(f):
        calls.append(f)
        return forward(f)

    monkeypatch.setattr(uncertainty, "forward", counting)
    monkeypatch.setattr(cli, "forward", counting)
    spec = GroupSpec.parse("cyclic:3x4;view=discrete;mass=0.5")
    f = MeasuredFunction(spec, TIME, np.arange(12) + 1j)
    src = tmp_path / "psi.csv"
    src.write_text(write_csv(f))
    payload = run_json(capsys, "uncertainty", "--mode", "support", "--input", str(src))
    assert len(calls) == 1
    assert payload["support_product"] == uncertainty.support_product(f)


def test_selftest(capsys):
    code, out, _ = run(capsys, "--selftest")
    assert code == 0
    assert "FAIL" not in out
    assert "PASS function CSV round trip, canonical and shuffled rows" in out
    assert "PASS closed-form and outer-sum witness norms match the full FFT" in out


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    """Every command of the README's CLI block exits 0, run in a directory
    holding the f.csv it reads; fhat.csv is written by the line before it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    spec = GroupSpec.parse("cyclic:2x3;view=compact;mass=1")
    f = MeasuredFunction(spec, TIME, np.arange(6) + 0.5j)
    (tmp_path / "f.csv").write_text(write_csv(f))
    seen = []
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        if not argv or argv[0] != "abelfourier":
            continue
        code, out, err = run(capsys, *argv[1:])
        assert code == 0, (line, err)
        seen.append(argv[1])
        if argv[1] == "witness":
            assert json.loads(out)["ratio"] == 4.0
        elif argv[1] == "estimate":
            comment = line.partition("#")[2]
            assert json.loads(out)["estimate"] == float(comment)
        elif "--inverse" in argv:  # the README says it round-trips to f.csv
            back = read_csv(io.StringIO(out))
            assert np.max(np.abs(back.values - f.values)) <= 1e-12
    assert "witness" in seen and "estimate" in seen and "--selftest" in seen


def test_no_subcommand_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 2


def _jsonable(obj):
    """What the CLI once handed ``json.dumps(..., indent=2)``: infinities and
    nan as strings, numpy scalars as Python numbers.  The oracle of
    ``_json_text``."""
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


_JSON_FLOATS = st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 5e-324, 1e16, 1e-5]) | st.floats()
_JSON_STRINGS = st.sampled_from(["", "\x00\x1f\x7f\t\n", '"\\', "\u00e9\u2028\u65e5", "\ud800", "\U0001f600"]) | st.text()
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    _JSON_FLOATS,
    _JSON_FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-2**63, 2**63 - 1).map(np.int64),
    _JSON_STRINGS,
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_JSON_STRINGS, inner, max_size=4),
    ),
    max_leaves=16,
)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_JSON_VALUES)
def test_emit_json_writes_the_bytes_of_indented_json_dumps(obj):
    out = io.StringIO()
    cli._emit_json(obj, out)
    assert out.getvalue() == json.dumps(_jsonable(obj), indent=2) + "\n"


def test_byte_identical_reruns(capsys):
    args = ["estimate", "--group", "cyclic:4;view=compact;mass=1", "--p", "1.5", "--q", "3",
            "--seed", "7", "--restarts", "4"]
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


# Every command that takes an exponent, "P" and "Q" standing for the values
# of --p and --q, and "PSI" for a unit-L2 function CSV.
EXPONENT_COMMANDS = [
    ["norm", "--input", "PSI", "--p", "P"],
    ["cpq", "--group", "cyclic:4", "--p", "P", "--q", "Q"],
    ["estimate", "--group", "cyclic:4", "--p", "P", "--q", "Q"],
    ["witness", "--family", "lacunary_compact", "--m", "16", "--p", "P", "--q", "Q"],
    ["sweep", "--family", "lacunary_compact", "--params", "16,32", "--p", "P", "--q", "Q"],
    ["uncertainty", "--mode", "check", "--input", "PSI", "--p", "P", "--q", "Q"],
    ["uncertainty", "--mode", "check", "--unweighted", "--input", "PSI", "--p", "P", "--q", "Q"],
    ["uncertainty", "--mode", "violate", "--target", "1", "--p", "P", "--q", "Q"],
]
SUBNORMAL_CASES = [
    pytest.param(argv, flag, tiny, id=f"{' '.join(argv[:2])}-{flag}-{tiny}")
    for argv in EXPONENT_COMMANDS for flag in ("P", "Q") if flag in argv
    for tiny in ("1e-320", "5e-324")
]


@pytest.mark.parametrize("argv, flag, tiny", SUBNORMAL_CASES)
def test_subnormal_exponent_is_a_usage_error(tmp_path, capsys, argv, flag, tiny):
    """1/p past the float range is one usage error naming the exponent, on
    every command, instead of a reciprocal of inf."""
    src = tmp_path / "psi.csv"
    src.write_text(write_csv(transform.delta(GroupSpec.parse("cyclic:4;view=discrete;mass=1"))))
    values = {"P": "3", "Q": "1.5", "PSI": str(src), flag: tiny}
    code, out, err = run(capsys, *[values.get(a, a) for a in argv])
    assert (code, out) == (2, "")
    assert err == f"error: exponent {tiny} is too small: its reciprocal is past the float range\n"


@pytest.mark.parametrize("target", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("side", ["compact", "discrete"])
def test_uncertainty_violate_non_finite_target_is_usage_error(capsys, side, target):
    p, q = ("1.111", "2.5") if side == "compact" else (str(1 / 0.6), "5")
    code, out, err = run(
        capsys, "uncertainty", "--mode", "violate", f"--target={target}",
        "--p", p, "--q", q, "--side", side,
    )
    assert code == 2
    assert out == ""
    assert err == "error: target must be finite\n"


@pytest.mark.parametrize("workers", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--kind", "witness", "--family", "full_orbit", "--params", "4,8",
         "--p", "1", "--q", "1"],
        ["sweep", "--kind", "region", "--side", "compact", "--u-values", "0.25",
         "--v-values", "0.75"],
    ],
    ids=["witness", "region"],
)
def test_sweep_rejects_workers_below_one_before_writing(capsys, argv, workers):
    with pytest.raises(SystemExit) as exc:
        main([*argv, f"--workers={workers}"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "argument --workers" in err


@pytest.mark.parametrize(
    "argv, want",
    [
        (["sweep", "--family", "subgroup_indicator", "--params", "2,3", "--p", "1", "--q", "1"], 2),
        (["sweep", "--family", "subgroup_indicator", "--r", "2", "--params", "2,63",
          "--p", "1", "--q", "1"], 3),
        (["sweep", "--kind", "region", "--side", "compact", "--u-values", "0.25",
          "--v-values", "0.25", "--group", "cyclic:4x"], 2),
    ],
    ids=["no_r", "capacity_after_first_row", "bad_group"],
)
def test_failed_sweep_writes_nothing(capsys, tmp_path, argv, want):
    """A sweep that fails prints no partial CSV and creates no output file,
    even when an earlier row was computed."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (want, "")
    assert err
    target = tmp_path / "sweep.csv"
    code, out, _ = run(capsys, *argv, "--output", str(target))
    assert (code, out) == (want, "")
    assert not target.exists()


def test_sweep_non_integer_workers_keeps_argparse_wording(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--family", "full_orbit", "--params", "4", "--workers", "abc"])
    assert capsys.readouterr().err.endswith("argument --workers: invalid int value: 'abc'\n")


def test_main_reuses_one_parser(monkeypatch, capsys):
    argv = ["estimate", "--group", "cyclic:4", "--p", "2", "--q", "2"]
    run(capsys, *argv)  # builds the parser if no earlier call did
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    code, _, err = run(capsys, *argv)
    assert code == 0, err
    assert built == []


# (argv, exit code): valid commands, help, every kind of usage error, two
# witnesses past the 2^20 cap and a group past 2^62 points, all fast.  Only
# the last three exit 3; the chirp on 2^40 points exits 0, as its norms are
# closed forms.
ARGV_MENU = [
    (["info", "--group", "cyclic:2x3;view=discrete;mass=0.5"], 0),
    (["cpq", "--group", "cyclic:4", "--p", "2", "--q", "2"], 0),
    (["cpq", "--group", "cyclic:4;view=discrete;mass=1e-10", "--p", "0.001", "--q", "1"], 0),
    (["region", "--side", "discrete", "--u", "0.25", "--v", "0.8"], 0),
    (["estimate", "--group", "cyclic:4x6;view=discrete;mass=0.5", "--p", "6", "--q", "0.8"], 0),
    (["witness", "--family", "chirp", "--r", "2", "--n", "2", "--q", "1"], 0),
    (["witness", "--family", "chirp", "--r", "2", "--n", "20"], 0),
    (["sweep", "--family", "full_orbit", "--params", "4,8", "--p", "1", "--q", "1",
      "--workers", "2"], 0),
    (["sweep", "--kind", "region", "--side", "compact", "--u-values", "0.25,0.75",
      "--v-values", "0.5"], 0),
    (["uncertainty", "--mode", "violate", "--target", "-1", "--p", "1.111", "--q", "2.5"], 0),
    (["--help"], 0),
    *(([name, "--help"], 0) for name in cli._HANDLERS),
    ([], 2),
    (["nosuch"], 2),
    (["--bogus"], 2),
    (["estimate", "--group", "cyclic:4", "--p", "2", "--q", "2", "--bogus", "1"], 2),
    (["cpq", "--group", "cyclic:4", "--p", "0", "--q", "2"], 2),
    (["cpq", "--group", "cyclic:4", "--p", "-1", "--q", "2"], 2),
    (["estimate", "--group", "cyclic:4", "--p", "abc", "--q", "2"], 2),
    (["region", "--side", "middle", "--u", "0.25", "--v", "0.8"], 2),
    (["witness", "--family", "nosuch", "--n", "2"], 2),
    (["witness", "--family", "chirp", "--r", "2", "--q", "1"], 2),
    (["estimate", "--group", "cyclic:4", "--p", "2"], 2),
    (["info", "--group", "cyclic:4x;view=compact"], 2),
    (["uncertainty", "--mode", "violate", "--target=nan", "--p", "1.111", "--q", "2.5"], 2),
    (["sweep", "--family", "full_orbit", "--params", "4", "--workers", "0"], 2),
    (["sweep", "--kind", "region", "--side", "compact"], 2),
    # options that are now constants: beta = 1.5, c = 1 and an arc sweep's m = 200 k
    (["witness", "--family", "lacunary_compact", "--m", "16", "--beta", "1e308"], 2),
    (["witness", "--family", "lacunary_compact", "--m", "16", "--c", "1e308"], 2),
    (["sweep", "--family", "arc_indicator", "--params", "1", "--m-factor", "300"], 2),
    (["witness", "--family", "clt_delta", "--r", "3", "--n", "13",
      "--p", "1", "--q", "1"], 3),
    (["witness", "--family", "full_orbit", "--m", "1048577"], 3),
    (["info", "--group", "cyclic:4294967296x4294967296"], 3),
]


def _outcome(argv):
    """Like ``run``, but a SystemExit's code counts as the exit code, and the
    streams are captured without capsys, which hypothesis's examples would
    share.  ``argv`` None runs ``main(None)``, which reads ``sys.argv``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(None if argv is None else list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _mutate(argv, kind, i):
    """``argv`` with one change of ``kind``; ``i`` picks where."""
    argv = list(argv)
    flags = [j for j, a in enumerate(argv) if a.startswith("--") and len(a) > 3]
    # every flag followed by a value
    valued = [j for j, a in enumerate(argv[:-1]) if a.startswith("--") and argv[j + 1][:1] != "-"]
    if kind == "abbreviate" and flags:  # --group -> --grou, --gro, ...
        j = flags[i % len(flags)]
        argv[j] = argv[j][:max(3, len(argv[j]) - 1 - i % 4)]
    elif kind == "equals" and flags and flags[-1] + 1 < len(argv):  # --p 2 -> --p=2
        j = flags[i % len(flags)]
        argv[j:j + 2] = ["=".join(argv[j:j + 2])]
    elif kind == "unknown":
        argv.append("--bogus")
    elif kind == "negative":
        argv += ["--target", "-5"]
    elif kind.startswith("--target "):
        argv += kind.split()
    elif kind == "twice" and valued:  # --p 6 ... --p <the value of the next flag>
        j, k = valued[i % len(valued)], valued[(i + 1) % len(valued)]
        argv += [argv[j], argv[k + 1]]
    elif kind in ("empty", "-") and valued:  # --group "" or --input -
        argv[valued[i % len(valued)] + 1] = "" if kind == "empty" else "-"
    elif kind == "bad_choice" and argv:
        choosing = [j for j in valued if argv[j] in ("--side", "--family", "--kind", "--mode")]
        if choosing:
            argv[choosing[i % len(choosing)] + 1] = "middle"
        else:
            argv += ["--side", "middle"]
    elif kind == "bad_type" and argv:  # after every valid flag
        argv += ["--p", "abc"]
    elif argv and kind in ("-h", "--selftest", "--", "--=x", "-=x"):  # after the subcommand
        argv.insert(1 + i % len(argv), kind)
    return argv


# The kinds of mutation whose result the parser's direct pass never reads;
# "twice" and "empty" keep a well-formed argv well-formed.
_HANDED_OVER = ["abbreviate", "equals", "unknown", "negative", "--target -3.5",
                "--target -1e9", "-", "bad_choice", "bad_type", "-h", "--selftest", "--",
                "--=x", "-=x"]
_MUTATIONS = [*_HANDED_OVER, "twice", "empty"]


def _full_parse(argv):
    return cli.build_parser().parse_args(argv)


def _parsed(parse, argv):
    """The ``repr`` of each value of ``parse(argv)``, so that nan equals
    nan, or None where it exits; output is dropped."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return {name: repr(value) for name, value in vars(parse(argv)).items()}
        except SystemExit:
            return None


# Reusing one parser is safe only while argparse keeps no state between
# parse_args calls; its internals change between Python versions.  main
# reads a subcommand's arguments from its option table or with that
# subcommand's parser alone, which must give the namespace, output and exit
# of the full top-level parse_args, the reference; so must main(None) on the
# same sys.argv.
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(ARGV_MENU),
                          st.sampled_from([None, *_MUTATIONS]), st.integers(0, 15)),
                min_size=1, max_size=8))
def test_shared_parser_matches_fresh_parser(entries):
    for (argv, expected_code), kind, i in entries:
        if kind is not None:
            argv = _mutate(argv, kind, i)
        shared = _outcome(argv)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
            fresh = _outcome(argv)
            mp.setattr(cli, "_parse_args", _full_parse)
            reference = _outcome(argv)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sys, "argv", ["abelfourier", *argv])
            from_sys_argv = _outcome(None)
        assert shared == fresh == reference == from_sys_argv, argv
        assert _parsed(cli._parse_args, argv) == _parsed(_full_parse, argv), argv
        if kind is None:
            assert shared[0] == expected_code, (argv, shared)


def _reaches_argparse(argv) -> bool:
    """Whether ``main(argv)`` calls any parser's ``parse_known_args``."""
    calls = []
    known = argparse.ArgumentParser.parse_known_args

    def spy(self, *args, **kwargs):
        calls.append(self.prog)
        return known(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(argparse.ArgumentParser, "parse_known_args", spy)
        _outcome(argv)
    return bool(calls)


@pytest.mark.parametrize("argv, code", ARGV_MENU, ids=[" ".join(a) for a, _ in ARGV_MENU])
def test_well_formed_flags_skip_argparse_and_the_rest_reach_it(argv, code):
    """A menu command that exits 0 spells every flag exactly with a value
    after it, and is read without argparse; the violator's ``--target -1``
    is the exception, as argparse decides whether ``-1`` is a number.  Every
    mutation that makes a spelling argparse's to read reaches argparse.
    Read either way, every mutation parses to the full parse's namespace."""
    if code == 0 and argv[0] in cli._HANDLERS and "--help" not in argv and "-1" not in argv:
        assert not _reaches_argparse(argv), argv
    for kind in _MUTATIONS:
        for i in range(3):
            mutated = _mutate(argv, kind, i)
            if kind in _HANDED_OVER and mutated != argv:
                assert _reaches_argparse(mutated), (kind, mutated)
            assert _parsed(cli._parse_args, mutated) == _parsed(_full_parse, mutated), mutated
