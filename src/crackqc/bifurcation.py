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

import functools
import math
import struct
import sys
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from .material import ForceLaw

if TYPE_CHECKING:
    import numpy as np

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
    """Uniform-s samples (s, u, P, residual) of one traced curve.

    `rows` holds them flat, row after row: s_0, u_0, P_0, r_0, s_1, ...,
    as a read-only float64 memoryview of the buffer the trace filled, so
    neither a write nor a resize can reach `samples` through it.
    `kink_splits` counts the steps split at u = u_cut; `stop` says why the
    trace ended: "s_max" (arc length reached) or "broken" (u passed
    1.1 u_cut).
    """

    rows: memoryview
    h: float
    kink_splits: int = 0
    stop: str = "s_max"

    @functools.cached_property
    def samples(self) -> np.ndarray:
        """`rows` as an (N, 4) array: a read-only view, no copy, built on
        first use (so only callers that index it load numpy)."""
        import numpy as np
        return np.frombuffer(self.rows).reshape(-1, 4)


def _cubic_roots(a2: float, a1: float, a0: float) -> List[float]:
    """Real roots of the monic cubic u^3 + a2 u^2 + a1 u + a0, unsorted.

    With u = t - a2/3 the cubic reads t^3 + p t + q = 0, and the sign of
    its discriminant (q/2)^2 + (p/3)^3 decides the count: three real roots
    (trigonometric form; a double root where it vanishes, i.e. at a fold)
    or one (Cardano, in the form free of cancellation).  The sign is read
    from |q/2| against |p/3|^(3/2), and the square root of the discriminant
    is taken as a product of square roots, so no power of q can overflow.
    Each root then takes one Newton step, kept only if it lowers the
    residual: next to a double root the derivative is tiny and a step
    could land far off.
    """
    shift = a2 / 3
    p = a1 - a2 * shift
    q = (2 * shift * shift - a1) * shift + a0
    half_q, third_p = q / 2, p / 3
    radius = math.sqrt(abs(third_p))
    cube = abs(third_p) * radius
    if third_p < 0 and abs(half_q) <= cube:
        angle = math.acos(max(-1.0, min(1.0, -half_q / cube))) / 3
        roots = [2 * radius * math.cos(angle - k * (2 * math.pi / 3)) - shift
                 for k in range(3)]
    else:
        if third_p < 0:
            sq = math.sqrt(abs(half_q) - cube) * math.sqrt(abs(half_q) + cube)
        else:
            sq = math.hypot(half_q, cube)
        w = (abs(half_q) + sq) ** (1 / 3)
        if half_q > 0:
            w = -w
        roots = [(w - third_p / w if w else 0.0) - shift]
    polished = []
    for u in roots:
        g = ((u + a2) * u + a1) * u + a0
        slope = (3 * u + 2 * a2) * u + a1
        if slope:
            v = u - g / slope
            if abs(((v + a2) * v + a1) * v + a0) < abs(g):
                u = v
        polished.append(u)
    return polished


def solve_branches(eq: EffectiveEquation, P: float) -> List[float]:
    """All real roots of F(u) + kappa u + eta P = 0, sorted ascending.

    On the bond support u <= u_cut the equation is the cubic
    -(kappa3/c^2)(u^3 - 2c u^2 + c^2 u) + kappa u + eta P = 0; beyond the
    cutoff it is linear, kappa u + eta P = 0.  Roots are collected per
    piece and deduplicated at the piece boundary; a linear root that
    overflows (at a subnormal kappa) is dropped, so every root is finite.
    The cubic is solved in closed form, in floats only.
    """
    if not math.isfinite(P):
        raise ValueError(f"P must be finite, got {P}")
    law, kappa, eta = eq.law, eq.kappa, eq.eta
    c, k3 = law.u_cut, law.kappa3
    s = k3 / (c * c)
    # Divided by -s: u^3 - 2c u^2 + (c^2 - kappa/s) u - eta P/s = 0
    roots: List[float] = []
    for u in _cubic_roots(-2 * c, c * c - kappa / s, -eta * P / s):
        if u <= c + 1e-12:
            roots.append(min(u, c))
    if kappa != 0:
        u_lin = -eta * P / kappa
        if c - 1e-12 < u_lin < math.inf:
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


def trace_curve(eq: EffectiveEquation, s_max: float, h: float = DEFAULT_STEP,
                sign: Optional[float] = None) -> BifurcationCurve:
    """Continuation from (u, P) = (0, 0) with uniform arc-length samples.

    Stops at s_max or once u exceeds 1.1 u_cut (the bond is fully broken
    and the remaining curve is an exact straight line).  Each sample row
    is (s, u, P, |g(u, P)|).

    A step that crosses u = u_cut is split exactly at the crossing: F''
    jumps at the cutoff, so a step straddling it would drop to low order,
    while landing a substep on the kink restores 4th order on each smooth
    piece.
    """
    if s_max < 0:
        raise ValueError(f"s_max must be nonnegative, got {s_max}")
    if h <= 0:
        raise ValueError(f"h must be positive, got {h}")
    if sign is None:
        sign = orientation(eq)
    c, kappa, eta = eq.law.u_cut, eq.kappa, eq.eta
    a = -(eq.law.kappa3 / c ** 2)
    du = sign * (-eta)
    hypot = math.hypot

    def step(u: float, P: float, ds: float) -> Tuple[float, float]:
        """Classical RK4 step of length ds along the oriented unit tangent
        (sign (-eta), sign g_u) / hypot(g_u, eta), g_u = F'(u) + kappa.

        The stages evaluate g_u inline with the operations of
        `ForceLaw.force_derivative` in the same order, so the step is bit
        for bit the one built on `EffectiveEquation.slope`.
        """
        g = kappa if u > c else a * (u - c) * (3 * u - c) + kappa
        r = hypot(g, eta)
        k1u, k1p = du / r, sign * g / r
        v = u + ds / 2 * k1u
        g = kappa if v > c else a * (v - c) * (3 * v - c) + kappa
        r = hypot(g, eta)
        k2u, k2p = du / r, sign * g / r
        v = u + ds / 2 * k2u
        g = kappa if v > c else a * (v - c) * (3 * v - c) + kappa
        r = hypot(g, eta)
        k3u, k3p = du / r, sign * g / r
        v = u + ds * k3u
        g = kappa if v > c else a * (v - c) * (3 * v - c) + kappa
        r = hypot(g, eta)
        k4u, k4p = du / r, sign * g / r
        return (u + ds / 6 * (k1u + 2 * k2u + 2 * k3u + k4u),
                P + ds / 6 * (k1p + 2 * k2p + 2 * k3p + k4p))

    u, P = 0.0, 0.0
    rows = array("d", (0.0, u, P, abs(eq.residual(u, P))))
    # One packed row per step: the fastest way to append four floats.
    append, pack = rows.frombytes, struct.Struct("4d").pack
    limit = OVERSHOOT_FACTOR * c
    splits = 0
    stop = "s_max"
    for k in range(1, int(round(s_max / h)) + 1):
        u_new, P_new = step(u, P, h)
        before, after = u - c, u_new - c
        if before != 0 and after != 0 and (before > 0) != (after > 0):
            # Bisection on the substep length; the relative term keeps the
            # width above two ulps of h, so the loop ends for any step size.
            splits += 1
            lo, hi = 0.0, h
            width = 1e-15 + 4 * sys.float_info.epsilon * h
            while hi - lo > width:
                theta = (lo + hi) / 2
                if (step(u, P, theta)[0] > c) == (before > 0):
                    lo = theta
                else:
                    hi = theta
            theta = (lo + hi) / 2
            u_mid, P_mid = step(u, P, theta)
            u_new, P_new = step(u_mid, P_mid, h - theta)
        u, P = u_new, P_new
        # |g(u, P)| with the operations of EffectiveEquation.residual.
        force = 0.0 if u > c else a * u * (u - c) ** 2
        append(pack(k * h, u, P, abs(force + kappa * u + eta * P)))
        if u > limit:
            stop = "broken"
            break
    return BifurcationCurve(rows=memoryview(rows).toreadonly(), h=h,
                            kink_splits=splits, stop=stop)


def compare_curves(curve_a: BifurcationCurve, curve_b: BifurcationCurve):
    """(sup-distance, per-sample series) of |du| + |dP| over shared s.

    Both curves must be traced with the same step so samples align.
    """
    import numpy as np
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
