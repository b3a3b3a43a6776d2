"""Branch solving, fold detection, and arc-length continuation.

The effective crack-tip equation g(u, P) = F(u) + kappa u + eta P = 0
defines the bifurcation curve.  Parameterized by arc length s, the curve
satisfies

    du/ds = -eta / R,    dP/ds = (F'(u) + kappa) / R,
    R = sqrt((F'(u) + kappa)^2 + eta^2),

a unit-speed field whose first integral is g itself.  Since eta > 0 the
field is globally smooth in s except for a curvature kink where u crosses
u_cut (F'' jumps there); the integrator splits its step exactly at that
crossing so the classical 4th-order accuracy survives.

The tangent's global sign is a free choice; here it is fixed so that
dP/ds > 0 at the start point (0, 0), i.e. the load initially increases
along the physical branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .material import ForceLaw

RESIDUAL_TARGET = 1e-8
DEFAULT_STEP = 1e-3
OVERSHOOT_FACTOR = 1.1


@dataclass(frozen=True)
class EffectiveEquation:
    """One-dimensional effective equation F(u) + kappa u + eta P = 0."""

    law: ForceLaw
    kappa: float
    eta: float

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError(
                f"eta must be positive for a nonsingular tangent field, "
                f"got {self.eta}")

    def residual(self, u: float, P: float) -> float:
        return self.law.force(u) + self.kappa * u + self.eta * P

    def slope(self, u: float) -> float:
        """d g / d u = F'(u) + kappa."""
        return self.law.force_derivative(u) + self.kappa


@dataclass(frozen=True)
class FoldPoint:
    """Saddle-node tangency: F'(u*) + kappa = 0 and g(u*, P*) = 0."""

    u_star: float
    P_star: float
    degenerate: bool = False


@dataclass(frozen=True)
class BifurcationCurve:
    """Uniform-s samples (s, u, P, residual) of one traced curve."""

    samples: np.ndarray
    h: float
    tag: str = ""


def solve_branches(eq: EffectiveEquation, P: float) -> List[float]:
    """All real roots of F(u) + kappa u + eta P = 0, sorted ascending.

    On the bond support u <= u_cut the equation is the cubic
    -(kappa3/c^2)(u^3 - 2c u^2 + c^2 u) + kappa u + eta P = 0; beyond the
    cutoff it is linear, kappa u + eta P = 0.  Roots are collected per
    piece and deduplicated at the piece boundary.
    """
    if not math.isfinite(P):
        raise ValueError(f"P must be finite, got {P}")
    law, kappa, eta = eq.law, eq.kappa, eq.eta
    c, k3 = law.u_cut, law.kappa3
    s = k3 / (c * c)
    # -s u^3 + 2 s c u^2 + (kappa - s c^2) u + eta P = 0
    coeffs = [-s, 2 * s * c, kappa - s * c * c, eta * P]
    roots: List[float] = []
    for r in np.roots(coeffs):
        if abs(r.imag) < 1e-9 * max(1.0, abs(r.real)):
            u = float(r.real)
            if u <= c + 1e-12:
                roots.append(min(u, c))
    if kappa != 0:
        u_lin = -eta * P / kappa
        if u_lin > c - 1e-12:
            roots.append(max(u_lin, c))
    roots.sort()
    deduped: List[float] = []
    for u in roots:
        if not deduped or abs(u - deduped[-1]) > 1e-9 * max(1.0, abs(u)):
            deduped.append(u)
    return deduped


def fold_points(eq: EffectiveEquation) -> List[FoldPoint]:
    """Tangency points F'(u) = -kappa on (0, u_cut) with their loads.

    For the cubic force law the condition is the quadratic
    3u^2 - 4cu + c^2 (1 - kappa/kappa3) = 0; zero, one (degenerate double
    root), or two solutions fall inside the interval.
    """
    law, kappa, eta = eq.law, eq.kappa, eq.eta
    c, k3 = law.u_cut, law.kappa3
    a2, a1, a0 = 3.0, -4 * c, c * c * (1 - kappa / k3)
    disc = a1 * a1 - 4 * a2 * a0
    if disc < 0:
        return []
    degenerate = disc == 0
    sq = math.sqrt(disc)
    candidates = sorted({(-a1 - sq) / (2 * a2), (-a1 + sq) / (2 * a2)})
    folds = []
    for u in candidates:
        if 0 < u < c:
            P = -(law.force(u) + kappa * u) / eta
            folds.append(FoldPoint(u_star=u, P_star=P, degenerate=degenerate))
    return folds


def orientation(eq: EffectiveEquation) -> float:
    """Tangent sign making dP/ds > 0 at the start point (0, 0)."""
    return 1.0 if eq.slope(0.0) > 0 else -1.0


def tangent(eq: EffectiveEquation, u: float,
            sign: Optional[float] = None) -> Tuple[float, float]:
    """Oriented unit tangent (du/ds, dP/ds) of the curve at displacement u."""
    if sign is None:
        sign = orientation(eq)
    slope = eq.slope(u)
    r = math.hypot(slope, eq.eta)
    return sign * (-eq.eta) / r, sign * slope / r


def _rk4_step(eq: EffectiveEquation, sign: float, u: float, P: float,
              h: float) -> Tuple[float, float]:
    k1u, k1p = tangent(eq, u, sign)
    k2u, k2p = tangent(eq, u + h / 2 * k1u, sign)
    k3u, k3p = tangent(eq, u + h / 2 * k2u, sign)
    k4u, k4p = tangent(eq, u + h * k3u, sign)
    return (u + h / 6 * (k1u + 2 * k2u + 2 * k3u + k4u),
            P + h / 6 * (k1p + 2 * k2p + 2 * k3p + k4p))


def _advance(eq: EffectiveEquation, sign: float, u: float, P: float,
             h: float) -> Tuple[float, float]:
    """One step of size h, split exactly at a u = u_cut crossing.

    F'' jumps at the cutoff, so a step straddling it would drop to low
    order; landing a substep exactly on the kink restores 4th order on
    each smooth piece.
    """
    c = eq.law.u_cut
    u_new, P_new = _rk4_step(eq, sign, u, P, h)
    before, after = u - c, u_new - c
    if before == 0 or after == 0 or (before > 0) == (after > 0):
        return u_new, P_new

    # Bisection on the substep length; the relative term keeps the width
    # above two ulps of h, so the loop ends for any step size.
    lo, hi = 0.0, h
    width = 1e-15 + 4 * np.finfo(float).eps * h
    while hi - lo > width:
        theta = (lo + hi) / 2
        if (_rk4_step(eq, sign, u, P, theta)[0] > c) == (before > 0):
            lo = theta
        else:
            hi = theta
    theta = (lo + hi) / 2
    u_mid, P_mid = _rk4_step(eq, sign, u, P, theta)
    return _rk4_step(eq, sign, u_mid, P_mid, h - theta)


def trace_curve(eq: EffectiveEquation, s_max: float,
                h: float = DEFAULT_STEP, sign: Optional[float] = None,
                tag: str = "") -> BifurcationCurve:
    """Continuation from (u, P) = (0, 0) with uniform arc-length samples.

    Stops at s_max or once u exceeds 1.1 u_cut (the bond is fully broken
    and the remaining curve is an exact straight line).  Each sample row
    is (s, u, P, |g(u, P)|).
    """
    if s_max < 0:
        raise ValueError(f"s_max must be nonnegative, got {s_max}")
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    if sign is None:
        sign = orientation(eq)
    u, P = 0.0, 0.0
    rows = [(0.0, u, P, abs(eq.residual(u, P)))]
    limit = OVERSHOOT_FACTOR * eq.law.u_cut
    steps = int(round(s_max / h))
    for k in range(1, steps + 1):
        u, P = _advance(eq, sign, u, P, h)
        rows.append((k * h, u, P, abs(eq.residual(u, P))))
        if u > limit:
            break
    return BifurcationCurve(samples=np.array(rows), h=h, tag=tag)


def compare_curves(curve_a: BifurcationCurve, curve_b: BifurcationCurve):
    """(sup-distance, per-sample series) of |du| + |dP| over shared s.

    Both curves must be traced with the same step so samples align.
    """
    if curve_a.h != curve_b.h:
        raise ValueError(
            f"mismatched discretization: h={curve_a.h} vs h={curve_b.h}")
    count = min(len(curve_a.samples), len(curve_b.samples))
    a = curve_a.samples[:count]
    b = curve_b.samples[:count]
    series = np.abs(a[:, 1] - b[:, 1]) + np.abs(a[:, 2] - b[:, 2])
    sup = float(series.max()) if count else 0.0
    return sup, np.column_stack([a[:, 0], series])


def lipschitz_bound(eq: EffectiveEquation, eq_hat: EffectiveEquation,
                    s_max: float):
    """Continuous-dependence bound L (|dk| + |de|) e^(L s_max) and its
    derivation.

    L is a certified upper bound on the joint Lipschitz constant of the
    normalized tangent (f1, f2) in (u, kappa, eta): the numerators are
    1-Lipschitz in (kappa, eta) and max|F''|-Lipschitz in u, the
    normalization 1/R is bounded by 1/eta_min, and |F''| on [0, 1.1 u_cut]
    attains its maximum 4 kappa3 / u_cut at u = 0.  Returns (bound,
    derivation string).
    """
    if s_max < 0:
        raise ValueError(f"s_max must be nonnegative, got {s_max}")
    law = eq.law
    f2_max = 4 * law.kappa3 / law.u_cut
    eta_min = min(eq.eta, eq_hat.eta)
    lconst = (f2_max + 2) / eta_min
    delta = abs(eq.kappa - eq_hat.kappa) + abs(eq.eta - eq_hat.eta)
    try:
        growth = math.exp(lconst * s_max)
    except OverflowError:
        growth = math.inf
    # Identical coefficients give identical curves; skip 0 * inf = nan.
    bound = lconst * delta * growth if delta else 0.0
    derivation = (
        f"max|F''| on [0, {OVERSHOOT_FACTOR} u_cut] = 4 kappa3 / u_cut = "
        f"{f2_max:.6g}; eta_min = {eta_min:.6g}; "
        f"L = (max|F''| + 2) / eta_min = {lconst:.6g}; "
        f"bound = L (|dkappa| + |deta|) exp(L s_max) "
        f"= {lconst:.6g} * {delta:.6g} * exp({lconst:.6g} * {s_max:.6g})")
    return bound, derivation
