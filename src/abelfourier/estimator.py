"""Numerical searches for the (p, q)-norm of the Fourier operator on a
finite group, which the tests hold against the exact norm.

The exact norm is the closed form ``norms.finite_cpq`` (Gilbert and
Rzeszotnik): the ratio ||fhat||_q / ||f||_p of the constant, the delta at
the identity or a bi-unimodular function, whichever is largest.  Those
functions are ``witnesses.EXTREMALS``, and ``structured_search`` evaluates
their three ratios numerically.

The multi-start gradient ascent on the smoothed log-ratio
(``ascent_estimate``, ``log_ratio_and_grad``, ``EstimatorConfig``) is kept
as the tests' oracle: a generic optimizer that should reach the closed form
and never exceed it.  Nothing in the library calls this module, and
``import abelfourier`` does not load it; it stays in the package because
``bench/layertrace.py`` wraps its functions by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .groups import GroupSpec
from .norms import ratio, recip
from .transform import (
    MeasuredFunction,
    TIME,
    _fft_flat,
    character_function,
    delta,
)
from .witnesses import EXTREMALS


#: Factor by which the ascent's line search shrinks (and regrows) its step.
STEP_SHRINK = 0.5
#: An accepted step that improves the log-ratio by at most this fraction of
#: max(1, |log-ratio|) ends the restart as converged.
REL_TOL = 1e-10
#: Smoothing of |z| as sqrt(|z|^2 + eps^2), which makes the objective
#: differentiable at zeros.
SMOOTHING_EPS = 1e-12


@dataclass(frozen=True)
class EstimatorConfig:
    restarts: int = 32
    max_iters: int = 5000
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be >= 1")


@dataclass
class NormEstimate:
    value: float
    witness: MeasuredFunction | None
    iterations: int
    converged: bool
    extremal: str | None = None  # the winning family of ``EXTREMALS``, if one won


def structured_search(spec: GroupSpec, p: float, q: float) -> NormEstimate:
    """Best ratio over the constant, the delta at the identity and the
    bi-unimodular function, evaluated numerically; ties go to the earlier.

    No function does better (see ``norms.finite_exponent``), so the value is
    ``finite_cpq`` up to roundoff.
    """
    spec._check_capacity()
    best = NormEstimate(value=-math.inf, witness=None, iterations=0, converged=True)
    for family, build in EXTREMALS.items():
        cand = build(spec)
        val = ratio(cand, p, q)
        if val > best.value:
            best = NormEstimate(val, cand, iterations=0, converged=True, extremal=family)
    return best


# -- smoothed ascent: the tests' oracle, unused by the library ---------------

def log_ratio_and_grad(vals, spec: GroupSpec, p: float, q: float, eps: float):
    """log of the eps-smoothed ratio and its Wirtinger gradient d/d(conj f).

    The gradient with respect to the real parameterization (Re f, Im f) is
    (2 Re g, 2 Im g) for the returned g.  Requires finite p and q.
    """
    vals = np.asarray(vals, dtype=np.complex128)
    wp, wq = spec.primal_atom, spec.dual_atom
    fhat = wp * _fft_flat(vals, spec.orders, inverse=False)
    mp = np.abs(vals) ** 2 + eps * eps
    mq = np.abs(fhat) ** 2 + eps * eps
    sp = wp * float(np.sum(mp ** (p / 2.0)))
    sq = wq * float(np.sum(mq ** (q / 2.0)))
    value = math.log(sq) / q - math.log(sp) / p
    dual_weight = wq * mq ** (q / 2.0 - 1.0) * fhat / (2.0 * sq)
    adjoint = wp * spec.size * _fft_flat(dual_weight, spec.orders, inverse=True)  # forward's adjoint
    grad = adjoint - wp * mp ** (p / 2.0 - 1.0) * vals / (2.0 * sp)
    return value, grad


def _ascend_from(start, spec, p, q, config):
    vals = start / np.linalg.norm(start)
    obj, grad = log_ratio_and_grad(vals, spec, p, q, SMOOTHING_EPS)
    step = 1.0
    iters = 0
    converged = False
    for _ in range(config.max_iters):
        iters += 1
        gnorm = np.linalg.norm(grad)
        if gnorm == 0.0:
            converged = True
            break
        direction = grad / gnorm
        improved = False
        while step > 1e-18:
            trial = vals + step * direction
            tnorm = np.linalg.norm(trial)
            if tnorm == 0.0:
                step *= STEP_SHRINK
                continue
            trial /= tnorm
            tobj, tgrad = log_ratio_and_grad(trial, spec, p, q, SMOOTHING_EPS)
            if tobj > obj:
                improvement = tobj - obj
                vals, obj, grad = trial, tobj, tgrad
                step = min(step / STEP_SHRINK, 1.0)  # let the step grow back
                improved = True
                if improvement <= REL_TOL * max(1.0, abs(obj)):
                    converged = True
                break
            step *= STEP_SHRINK
        if not improved:
            converged = True  # no ascent direction at the smallest step
            break
        if converged:
            break
    return vals, iters, converged


def ascent_estimate(
    spec: GroupSpec, p: float, q: float, config: EstimatorConfig | None = None
) -> NormEstimate:
    """Multi-start gradient ascent on the smoothed log-ratio.

    Starting points are characters, then deltas, then complex Gaussian noise,
    up to ``config.restarts`` starts; the returned value is recomputed
    unsmoothed at the best witness.  For p or q infinite there is no smooth
    objective; the structured search is returned instead (reported with
    iterations = 0).
    """
    config = config or EstimatorConfig()
    u, v = recip(p), recip(q)
    if u == 0.0 or v == 0.0:
        return structured_search(spec, p, q)

    starts: list[np.ndarray] = []
    for chi in spec.elements():
        if len(starts) >= config.restarts:
            break
        starts.append(character_function(spec, chi).values)
    for x in spec.elements():
        if len(starts) >= config.restarts:
            break
        starts.append(delta(spec, at=x).values)
    rng = np.random.default_rng(config.seed)
    while len(starts) < config.restarts:
        noise = rng.standard_normal(spec.size) + 1j * rng.standard_normal(spec.size)
        starts.append(noise)

    best_val = -math.inf
    best_witness = None
    total_iters = 0
    all_converged = True
    for start in starts:
        vals, iters, converged = _ascend_from(start, spec, p, q, config)
        total_iters += iters
        all_converged = all_converged and converged
        witness = MeasuredFunction(spec, TIME, vals)
        val = ratio(witness, p, q)
        if val > best_val:  # strict: deterministic lowest-index tie-break
            best_val = val
            best_witness = witness
    return NormEstimate(
        value=best_val,
        witness=best_witness,
        iterations=total_iters,
        converged=all_converged,
    )
