"""Stationary Gaussian input models as exact autocorrelation/spectral-density
Fourier pairs.

Each model fixes a closed-form pair (R, f) with

    f(lam) = (1/2pi) * integral R(tau) * exp(-i*tau*lam) dtau,

R even and absolutely integrable, f nonnegative and even.  The three built-in
families and their pairs:

* exponential decay ("ou"):      R(tau) = P*exp(-alpha*|tau|),
                                 f(lam) = P*alpha / (pi*(alpha^2 + lam^2))
* squared-exponential ("gauss"): R(tau) = P*exp(-tau^2/(2*sigma^2)),
                                 f(lam) = (P*sigma/sqrt(2pi)) * exp(-sigma^2*lam^2/2)
* triangular ("tri"):            R(tau) = P*max(0, 1-|tau|/tau0),
                                 f(lam) = (P*tau0/2pi) * (sin(lam*tau0/2)/(lam*tau0/2))^2

Each family is one ``ModelFamily`` record in the ``_FAMILIES`` table: the pair
and every closed-form fact the lab derives from it.  Adding a kind means adding
one ``ModelKind`` member and one record.

The module also evaluates the spectral functionals

    (1/2pi) * integral g(2pi*f(lam)) dlam,   g a monomial x^q or log(1+x),

from the pair alone: (1/2pi) * integral 2pi*f = R(0) = P fixes the first-order
part exactly, and the rest is an adaptive quadrature on [0, Lambda] (evenness
halves the domain) with Lambda enlarged until the family's tail bound keeps the
neglected mass below a requested relative tolerance.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NonConvergedQuadrature
from .quadrature import _panel_sums, adaptive_gauss_legendre

__all__ = [
    "ModelKind",
    "ModelFamily",
    "SpectralModel",
    "spectral_functional",
]

_TWO_PI = 2.0 * math.pi


class ModelKind(enum.Enum):
    """Built-in autocorrelation families."""

    ORNSTEIN_UHLENBECK = "ou"
    GAUSSIAN_KERNEL = "gauss"
    TRIANGULAR = "tri"


@dataclass(frozen=True)
class ModelFamily:
    """Closed-form description of one autocorrelation family, as functions
    of the power P = R(0) and the family's scale parameter s."""

    scale_name: str  # the name of s in error messages
    scale_flag: str  # the command-line flag that sets s
    scale_help: str  # what s is, in the flag's help text
    acf: Callable  # (P, s, |tau|) -> R(tau)
    psd: Callable  # (P, s, lam) -> f(lam)
    abs_acf_integral: Callable  # (P, s) -> integral |R| over the line
    correlation_time: Callable  # (s) -> characteristic correlation time
    breakpoints: Callable  # (s) -> points where R is not smooth
    power_tail_bound: Callable  # (P, s, lam0, q) -> bound on (1/pi) int_{lam0}^inf (2pi*f)^q
    gamma: Callable  # (P, s, h, n) -> Gram coefficients gamma_0..gamma_{n-1} (see gram)
    ar1_step: Callable | None = None  # (s, delta) -> AR(1) coefficient rho of a Markov kernel


# --------------------------------------------------------------------------
# closed forms that do not fit on one line of the family table
# --------------------------------------------------------------------------
def _algebraic_tail(u: float, lam0: float, q: int) -> float:
    """(1/pi) * integral_{lam0}^{inf} (u / lam^2)^q dlam, the tail bound of a
    density with 2pi*f(lam) <= u / lam^2."""
    return (u**q) / ((2 * q - 1) * lam0 ** (2 * q - 1)) / math.pi


def _gaussian_power_tail(p: float, s: float, lam0: float, q: int) -> float:
    c = p * s * math.sqrt(_TWO_PI)
    expo = -q * (s * lam0) ** 2 / 2.0
    if expo < -700.0:
        return 0.0
    return (c**q) * math.exp(expo) / (q * s * s * lam0) / math.pi


def _gamma_exponential(power: float, rate: float, h: float, n: int) -> np.ndarray:
    a = rate * h
    out = np.empty(n)
    # (1/h) * double integral of P*exp(-rate*|u-v|) over the diagonal cell:
    # 2P*(a - 1 + e^{-a}) / (h*rate^2), written with expm1 to avoid
    # cancellation for small a.
    out[0] = 2.0 * power * (a + math.expm1(-a)) / (h * rate * rate)
    if n > 1:
        l = np.arange(1, n)
        factor = power * (4.0 * math.sinh(a / 2.0) ** 2) / (h * rate * rate)
        out[1:] = factor * np.exp(-a * l)
    return out


_erf = np.frompyfunc(math.erf, 1, 1)  # elementwise, into an object array


def _gamma_squared_exponential(power: float, width: float, h: float, n: int) -> np.ndarray:
    s = width
    if h < s:
        # The closed form below is a second difference whose rounding error
        # grows as 1e-16 * (s/h)^2 and, in the tail, exceeds the true
        # gamma_l and turns it negative.  R varies on the scale s > h, so
        # one 16-point panel per lag of
        # gamma_l = (1/h) * integral_0^h (h - u) [R(l h + u) + R(l h - u)] du
        # is accurate to rounding, and every term of it is positive.
        lag = h * np.arange(n, dtype=float)[:, None]
        two_var = 2.0 * s * s

        def overlap(u):
            bump = np.exp(-((lag + u) ** 2) / two_var) + np.exp(-((lag - u) ** 2) / two_var)
            return bump * (h - u)

        return power * _panel_sums(overlap, np.zeros(n), np.full(n, h)) / h
    l = np.arange(n, dtype=float)
    a0 = (l - 1.0) * h
    b0 = (l + 1.0) * h
    m = l * h
    rt2 = s * math.sqrt(2.0)

    def gauss_mass(a, b):
        # integral_a^b exp(-t^2 / (2 s^2)) dt
        return s * math.sqrt(math.pi / 2.0) * (_erf(b / rt2) - _erf(a / rt2)).astype(float)

    def gauss_moment(a, b):
        # integral_a^b t * exp(-t^2 / (2 s^2)) dt
        return s * s * (np.exp(-(a * a) / (2 * s * s)) - np.exp(-(b * b) / (2 * s * s)))

    # gamma_l = (1/h) * [ int_{a0}^{m} R(t)(t - a0) dt + int_{m}^{b0} R(t)(b0 - t) dt ]
    left = gauss_moment(a0, m) - a0 * gauss_mass(a0, m)
    right = b0 * gauss_mass(m, b0) - gauss_moment(m, b0)
    return power * (left + right) / h


_GL3_NODES, _GL3_WEIGHTS = np.polynomial.legendre.leggauss(3)


def _gamma_triangular(power: float, support: float, h: float, n: int) -> np.ndarray:
    tau0 = support
    out = np.zeros(n)
    for l in range(n):
        a0, m, b0 = (l - 1) * h, l * h, (l + 1) * h
        lo, hi = max(a0, -tau0), min(b0, tau0)
        if lo >= hi:
            continue  # cell entirely outside the autocorrelation support
        cuts = sorted({lo, hi} | {b for b in (-tau0, 0.0, tau0, m) if lo < b < hi})
        total = 0.0
        for a, b in zip(cuts[:-1], cuts[1:]):
            # R and the triangular window are both piecewise linear on this
            # panel, so the product is a quadratic and 3-point Gauss-Legendre
            # integrates it exactly.
            t = 0.5 * (b - a) * (_GL3_NODES + 1.0) + a
            f = (1.0 - np.abs(t) / tau0) * (h - np.abs(t - m))
            total += 0.5 * (b - a) * float(np.dot(_GL3_WEIGHTS, f))
        out[l] = power * total / h
    return out


_FAMILIES = {
    ModelKind.ORNSTEIN_UHLENBECK: ModelFamily(
        scale_name="rate",
        scale_flag="rate-param",
        scale_help="decay rate",
        acf=lambda p, s, t: p * np.exp(-s * t),
        psd=lambda p, s, x: p * s / (math.pi * (s * s + x * x)),
        abs_acf_integral=lambda p, s: 2.0 * p / s,
        correlation_time=lambda s: 1.0 / s,
        breakpoints=lambda s: (0.0,),
        power_tail_bound=lambda p, s, lam0, q: _algebraic_tail(2.0 * p * s, lam0, q),
        gamma=_gamma_exponential,
        ar1_step=lambda s, delta: math.exp(-s * delta),
    ),
    ModelKind.GAUSSIAN_KERNEL: ModelFamily(
        scale_name="width",
        scale_flag="width",
        scale_help="kernel width",
        acf=lambda p, s, t: p * np.exp(-(t * t) / (2.0 * s**2)),
        psd=lambda p, s, x: (p * s / math.sqrt(_TWO_PI)) * np.exp(-(s * s) * (x * x) / 2.0),
        abs_acf_integral=lambda p, s: p * s * math.sqrt(_TWO_PI),
        correlation_time=lambda s: s,
        breakpoints=lambda s: (),
        power_tail_bound=_gaussian_power_tail,
        gamma=_gamma_squared_exponential,
    ),
    ModelKind.TRIANGULAR: ModelFamily(
        scale_name="support",
        scale_flag="support",
        scale_help="support radius",
        acf=lambda p, s, t: p * np.maximum(0.0, 1.0 - t / s),
        # sin(u)^2/u^2 with u = x*s/2 and the removable singularity at u = 0;
        # np.sinc evaluates sin(pi y)/(pi y), so u = pi * y.
        psd=lambda p, s, x: (p * s / _TWO_PI) * np.sinc(x * (s / 2.0) / math.pi) ** 2,
        abs_acf_integral=lambda p, s: p * s,
        correlation_time=lambda s: s,
        breakpoints=lambda s: (-s, 0.0, s),
        power_tail_bound=lambda p, s, lam0, q: _algebraic_tail(4.0 * p / s, lam0, q),
        gamma=_gamma_triangular,
    ),
}


@dataclass(frozen=True)
class SpectralModel:
    """A stationary zero-mean Gaussian input model.

    ``power`` is R(0) >= 0; ``scale`` is the kind-specific shape parameter
    (decay rate alpha, kernel width sigma, or support radius tau0) and must be
    strictly positive.
    """

    kind: ModelKind
    power: float
    scale: float

    def __post_init__(self) -> None:
        if not isinstance(self.kind, ModelKind):
            raise ValueError(f"kind must be a ModelKind, got {self.kind!r}")
        power = float(self.power)
        scale = float(self.scale)
        if not math.isfinite(power) or power < 0.0:
            raise ValueError(f"power must be finite and >= 0, got {self.power!r}")
        if not math.isfinite(scale) or scale <= 0.0:
            name = self.family.scale_name
            raise ValueError(f"{name} must be finite and > 0, got {self.scale!r}")
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "scale", scale)

    # --- constructors -----------------------------------------------------
    @classmethod
    def ornstein_uhlenbeck(cls, power: float, rate: float) -> "SpectralModel":
        """Exponential-decay autocorrelation with decay rate ``rate``."""
        return cls(ModelKind.ORNSTEIN_UHLENBECK, power, rate)

    @classmethod
    def gaussian_kernel(cls, power: float, width: float) -> "SpectralModel":
        """Squared-exponential autocorrelation with width ``width``."""
        return cls(ModelKind.GAUSSIAN_KERNEL, power, width)

    @classmethod
    def triangular(cls, power: float, support: float) -> "SpectralModel":
        """Triangular autocorrelation supported on [-support, support]."""
        return cls(ModelKind.TRIANGULAR, power, support)

    @property
    def family(self) -> ModelFamily:
        """The closed-form record of this model's kind."""
        return _FAMILIES[self.kind]

    # --- autocorrelation and spectral density ------------------------------
    def acf(self, tau):
        """Autocorrelation R(tau); exactly even in tau."""
        t = np.abs(np.asarray(tau, dtype=float))
        out = self.family.acf(self.power, self.scale, t)
        return out if out.ndim else float(out)

    def psd(self, lam):
        """Power spectral density f(lam) >= 0; exactly even in lam."""
        out = self.family.psd(self.power, self.scale, np.asarray(lam, dtype=float))
        return out if out.ndim else float(out)

    def abs_acf_integral(self) -> float:
        """integral |R(tau)| dtau over the whole line, in closed form."""
        return self.family.abs_acf_integral(self.power, self.scale)

    def correlation_time(self) -> float:
        """Characteristic correlation time scale of the model."""
        return self.family.correlation_time(self.scale)

    def acf_breakpoints(self) -> tuple[float, ...]:
        """Points where R is not smooth (used by quadrature panel splitting)."""
        return self.family.breakpoints(self.scale)


# --------------------------------------------------------------------------
# spectral functionals
# --------------------------------------------------------------------------
_MAX_PANELS = 100_000  # panels one quadrature may evaluate


def spectral_functional(model: SpectralModel, g, tol: float = 1e-8) -> float:
    """Compute (1/2pi) * integral over the line of g(2pi*f(lam)) dlam.

    ``g`` is either a positive integer q (the monomial x^q) or the string
    ``"log1p"`` (g(x) = log(1 + x)); for log1p the channel rate is half the
    returned value.  Fourier inversion at tau = 0 gives
    (1/2pi) * integral 2pi*f = R(0) = P, so q = 1 returns P exactly and log1p
    returns P - (1/pi) * integral_0^inf (x - log(1 + x)), x = 2pi*f(lam).
    That integral, and the one of x^q for q >= 2, is a quadrature on
    [0, Lambda] by evenness, with Lambda enlarged until the family's bound on
    the neglected tail (x^2/2 for log1p) is below tolerance.

    Raises NonConvergedQuadrature when the tolerance cannot be certified
    within the enlargement/subdivision budget.
    """
    if isinstance(tol, bool) or not (
        isinstance(tol, (int, float)) and math.isfinite(tol) and tol > 0.0
    ):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    log1p = isinstance(g, str) and g == "log1p"
    if not log1p and (not isinstance(g, (int, np.integer)) or isinstance(g, bool) or g < 1):
        raise ValueError(f"functional must be 'log1p' or an integer power >= 1, got {g!r}")
    if g == 1 or model.power == 0.0:
        return model.power
    fam, p, s = model.family, model.power, model.scale
    q = 2 if log1p else int(g)

    def density(lam: np.ndarray) -> np.ndarray:
        return _TWO_PI * fam.psd(p, s, lam)

    if log1p:
        def estimand(lam: np.ndarray) -> np.ndarray:
            return np.log1p(density(lam))

        def integrand(lam: np.ndarray) -> np.ndarray:
            x = density(lam)
            return x - np.log1p(x)
    else:
        def integrand(lam: np.ndarray) -> np.ndarray:
            return density(lam) ** q

        estimand = integrand

    char_freq = 1.0 / model.correlation_time()

    def integrate(fun, lam: float, eps_abs: float, eps_rel: float = 0.0) -> tuple[float, float]:
        # Start from panels 2pi * char_freq wide, one period of the oscillation
        # of an f like the triangular sinc^2: a panel that spans many periods
        # can agree with its two halves by aliasing and be accepted unresolved.
        panels = math.ceil(lam / (_TWO_PI * char_freq))
        if panels > _MAX_PANELS:
            raise NonConvergedQuadrature(
                f"truncation {lam:.3e} needs {panels} panels, over the budget of {_MAX_PANELS}"
            )
        cuts = np.linspace(0.0, lam, panels + 1)
        return adaptive_gauss_legendre(fun, cuts, eps_abs, _MAX_PANELS, eps_rel)

    lam0 = 10.0 * char_freq
    # Crude magnitude of the result, from g itself, used to convert the
    # relative tolerance into an absolute tail/quadrature budget.
    scale_est, _ = integrate(estimand, lam0, 0.0, 1e-6)
    scale_est = max(abs(scale_est) / math.pi, 1e-300)

    def remainder(lam: float) -> float:
        # Bound on the neglected tail; 0 <= x - log(1+x) <= x^2/2.
        return (0.5 if log1p else 1.0) * fam.power_tail_bound(p, s, lam, q)

    budget = 0.5 * tol * scale_est
    enlargements = 0
    while remainder(lam0) > budget:
        lam0 *= 2.0
        enlargements += 1
        if enlargements > 200:
            raise NonConvergedQuadrature(
                f"tail bound stuck above tolerance: remainder {remainder(lam0):.3e} "
                f"> budget {budget:.3e} at truncation {lam0:.3e}"
            )

    eps_abs = 0.25 * tol * scale_est * math.pi
    value, err_est = integrate(integrand, lam0, eps_abs)
    if err_est > max(4.0 * eps_abs, tol * scale_est * math.pi):
        raise NonConvergedQuadrature(
            f"quadrature error estimate {err_est:.3e} exceeds budget on [0, {lam0:.3e}]"
        )
    return p - value / math.pi if log1p else value / math.pi
