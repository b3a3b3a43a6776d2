"""Material parameters, model vocabulary, force law and characteristic roots.

The model is a semi-infinite harmonic chain with nearest-neighbor stiffness
kappa1, next-nearest-neighbor stiffness kappa2, and vertical bond stiffness
kappa3.  The vertical bond at the crack tip follows a cubic force law that
vanishes beyond the cutoff displacement u_cut.

Two linear recurrences govern the displacement away from the tip.  In the
cracked region the characteristic roots are (z0, 1/z0, 1, 1) with

    kappa2 z^2 + (kappa1 + 2 kappa2) z + kappa2 = 0,  |z0| < 1.

In the bonded region the quartic reduces, through w = z + 1/z, to

    kappa2 w^2 + kappa1 w - 2 (kappa1 + 2 kappa2 + kappa3) = 0,

whose discriminant equals delta_disc = kappa_bar^2 + 8 kappa2 kappa3.  The
two roots with magnitude <= 1 are z1 and z2; the derived combinations
alpha = -z1 z2 and beta = z1 + z2 drive every closed-form coefficient.
At kappa2 = 0 the quartic is z times a quadratic: z1 = 0 and z0 is undefined.

`ModelKind`, `check_interface` and `EffectiveCoefficients` sit here, shared
by the closed forms (`effective`) and the chain oracle (`lattice`).

All functions accept floats or any numeric type supporting arithmetic and
** 0.5 (e.g. mpmath.mpf), so high-precision sweeps can reuse the same code.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional


class ParameterError(ValueError):
    """Invalid material parameters; `code` identifies the violated condition."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _sign(x):
    return 1 if x >= 0 else -1


def _sqrt(x):
    return x ** 0.5


@dataclass(frozen=True)
class MaterialParams:
    """Validated force constants with derived quantities stored once."""

    kappa1: float
    kappa2: float
    kappa3: float
    u_cut: float
    kappa_bar: float
    delta_disc: float


def validate(kappa1, kappa2, kappa3, u_cut) -> MaterialParams:
    """Check the admissibility conditions and populate derived constants.

    Raises ParameterError with a distinct code for each violated condition:
    "kappa1" (kappa1 <= 0), "kappa_bar" (kappa1 + 4 kappa2 <= 0),
    "kappa3" (kappa3 <= 0), "u_cut" (u_cut <= 0), "delta"
    (delta_disc < 0, the oscillatory-root regime), or "not_finite".
    """
    for name, value in (("kappa1", kappa1), ("kappa2", kappa2),
                        ("kappa3", kappa3), ("u_cut", u_cut)):
        if not math.isfinite(float(value)):
            raise ParameterError("not_finite", f"{name} must be finite, got {value!r}")
    kappa_bar = kappa1 + 4 * kappa2
    if kappa1 <= 0:
        raise ParameterError("kappa1", f"kappa1 must be positive, got {kappa1}")
    if kappa_bar <= 0:
        raise ParameterError("kappa_bar",
                             f"kappa1 + 4*kappa2 must be positive, got {kappa_bar}")
    if kappa3 <= 0:
        raise ParameterError("kappa3", f"kappa3 must be positive, got {kappa3}")
    if u_cut <= 0:
        raise ParameterError("u_cut", f"u_cut must be positive, got {u_cut}")
    delta_disc = kappa_bar * kappa_bar + 8 * kappa2 * kappa3
    if delta_disc < 0:
        raise ParameterError(
            "delta",
            f"kappa_bar^2 + 8*kappa2*kappa3 = {delta_disc} < 0: "
            "complex bonded-region roots are unsupported")
    return MaterialParams(kappa1, kappa2, kappa3, u_cut, kappa_bar, delta_disc)


class ModelKind(enum.Enum):
    EXACT = "exact"
    QC = "qc"
    QQC = "qqc"
    FQC = "fqc"

    @property
    def has_energy(self) -> bool:
        """FQC mixes force balances directly and admits no total energy."""
        return self is not ModelKind.FQC


# Smallest interface index per approximation; each also needs m < n.
MIN_INTERFACE = {ModelKind.QC: 3, ModelKind.QQC: 2, ModelKind.FQC: 1}


def check_interface(model: ModelKind, m: Optional[int], n: int):
    """Raise ValueError unless MIN_INTERFACE[model] <= m < n."""
    if m is None:
        raise ValueError(f"{model.value} requires an interface index m")
    if not (MIN_INTERFACE[model] <= m < n):
        raise ValueError(f"{model.name} requires {MIN_INTERFACE[model]} "
                         f"<= m < n, got m={m}, n={n}")


@dataclass(frozen=True)
class EffectiveCoefficients:
    model: ModelKind
    kappa: float
    eta: float
    n: int
    m: Optional[int] = None


@dataclass(frozen=True)
class ForceLaw:
    """Cubic vertical-bond force law with cutoff.

    F(u) = -(kappa3 / u_cut^2) u (u - u_cut)^2 for u <= u_cut and 0 beyond.
    The same cubic is evaluated for u < 0 (a smooth extension that keeps
    Newton iterations well-defined); physical validity is u >= 0.
    """

    kappa3: float
    u_cut: float

    @property
    def gamma0(self):
        """Surface energy of one fully broken bond, gamma(u_cut)."""
        return self.kappa3 * self.u_cut ** 2 / 12

    def force(self, u):
        if u > self.u_cut:
            return 0.0 * u
        c = self.u_cut
        return -(self.kappa3 / c ** 2) * u * (u - c) ** 2

    def force_derivative(self, u):
        if u > self.u_cut:
            return 0.0 * u
        c = self.u_cut
        return -(self.kappa3 / c ** 2) * (u - c) * (3 * u - c)

    def surface_energy(self, u):
        """gamma(u) = -integral of F from 0 to u, in closed form.

        Evaluated for u < 0 through the same smooth cubic extension as
        `force`, so energy and force stay consistent for Newton trials
        that momentarily leave the physical range.
        """
        c = self.u_cut
        if u >= c:
            return self.gamma0 + 0.0 * u
        return (self.kappa3 / c ** 2) * (u ** 4 / 4 - 2 * c * u ** 3 / 3
                                         + c ** 2 * u ** 2 / 2)


def force_law(params: MaterialParams) -> ForceLaw:
    return ForceLaw(params.kappa3, params.u_cut)


@dataclass(frozen=True)
class CharacteristicRoots:
    """Real characteristic roots and the derived alpha/beta combinations."""

    z0: float
    z1: float
    z2: float
    alpha: float
    beta: float


def crack_region_root(params: MaterialParams):
    """Root z0 of kappa2 z^2 + (kappa1 + 2 kappa2) z + kappa2 with |z0| < 1.

    Uses the numerically stable quadratic formula (no subtraction of nearly
    equal quantities); the two roots are reciprocal, so the small one is
    q/kappa2 or kappa2/q, whichever has magnitude below one.
    """
    k1, k2 = params.kappa1, params.kappa2
    if k2 == 0:
        raise ParameterError(
            "kappa2",
            "kappa2 = 0: the crack-region recurrence is second order and z0 "
            "is undefined; only the full-chain solver supports this case")
    b = k1 + 2 * k2
    disc = b * b - 4 * k2 * k2
    q = -(b + _sign(b) * _sqrt(disc)) / 2
    r1 = q / k2
    r2 = k2 / q
    return r1 if abs(r1) <= abs(r2) else r2


def bonded_region_roots(params: MaterialParams):
    """The two roots (z1, z2) of the bonded-region quartic with |z| <= 1.

    Solved through the substitution w = z + 1/z, which reduces the quartic to
    kappa2 w^2 + kappa1 w - 2 (kappa1 + 2 kappa2 + kappa3) = 0 with
    discriminant exactly delta_disc, then picks the |z| <= 1 branch of
    z^2 - w z + 1 = 0 for each w.  Root pairing is therefore unambiguous.
    At kappa2 = 0 the w1 branch is infinite, so z1 = 0 and z2 is the
    decaying root of kappa1 z^2 - 2 (kappa1 + kappa3) z + kappa1.
    """
    k1, k2, k3 = params.kappa1, params.kappa2, params.kappa3
    q = -(k1 + _sign(k1) * _sqrt(params.delta_disc)) / 2
    w2 = -2 * (k1 + 2 * k2 + k3) / q
    z1 = 0 * w2 if k2 == 0 else _bonded_root(q / k2, k1, k2, k3)
    return z1, _bonded_root(w2, k1, k2, k3)


def _bonded_root(w, k1, k2, k3):
    """The |z| <= 1 root of z^2 - w z + 1 = 0, polished on the quartic."""
    ww = w * w - 4
    if ww < 0:
        raise ParameterError(
            "complex_roots",
            f"|z + 1/z| = {abs(w)} < 2: the bonded-region roots are "
            "complex; this regime is unsupported")
    if ww == 0:
        # |w| = 2 means z = +-1, and of these only z = 1 solves the
        # quartic, at kappa3 = 0.  So ww is 0 only where kappa3 is lost
        # to rounding against kappa1, and the polish below would move
        # the double root far off.
        raise ParameterError(
            "marginal",
            f"|z + 1/z| rounds to 2 at kappa3 = {k3}: the bonded-region "
            "roots are a double root on |z| = 1 in floating point")
    s = _sign(w)
    z = (w - s * _sqrt(ww)) / 2
    # One Newton step on the quartic removes the mild error amplification
    # of the w-substitution when |w| is close to 2.
    dp = (4 * k2 * z ** 3 + 3 * k1 * z * z
          - 2 * (2 * k1 + 2 * k2 + 2 * k3) * z + k1)
    if dp != 0:
        pv = (k2 * z ** 4 + k1 * z ** 3
              - (2 * k1 + 2 * k2 + 2 * k3) * z * z + k1 * z + k2)
        z = z - pv / dp
    return z


def characteristic_roots(params: MaterialParams) -> CharacteristicRoots:
    """All three decaying characteristic roots plus alpha and beta."""
    z0 = crack_region_root(params)
    z1, z2 = bonded_region_roots(params)
    return CharacteristicRoots(z0=z0, z1=z1, z2=z2,
                               alpha=-z1 * z2, beta=z1 + z2)


def alpha_beta_residuals(params: MaterialParams, roots: CharacteristicRoots):
    """Relative residuals of the two alpha/beta relations.

    rel1:  kappa1 alpha + kappa2 (alpha - 1) beta = 0
    rel2:  -2 (kappa1 + kappa2) alpha + kappa2 (alpha^2 + beta^2 + 1)
           = 2 kappa3 alpha

    Both follow from comparing coefficients in the factorization of the
    bonded-region quartic.  The residuals are normalized by the largest term
    magnitude in each relation.
    """
    k1, k2, k3 = params.kappa1, params.kappa2, params.kappa3
    a, b = roots.alpha, roots.beta
    t1 = (k1 * a, k2 * (a - 1) * b)
    r1 = t1[0] + t1[1]
    s1 = max(abs(t1[0]), abs(t1[1]), 1e-300)
    t2 = (-2 * (k1 + k2) * a, k2 * (a * a + b * b + 1), -2 * k3 * a)
    r2 = t2[0] + t2[1] + t2[2]
    s2 = max(abs(t2[0]), abs(t2[1]), abs(t2[2]), 1e-300)
    return r1 / s1, r2 / s2
