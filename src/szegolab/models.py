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

The module also evaluates the spectral functionals

    (1/2pi) * integral g(2pi*f(lam)) dlam,   g a monomial x^q or log(1+x),

by adaptive quadrature on [0, Lambda] (evenness halves the domain) with
per-model analytic tail handling, so the neglected mass stays below a
requested relative tolerance.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
import scipy

from .errors import NonConvergedQuadrature

__all__ = [
    "ModelKind",
    "SpectralModel",
    "acf_eval",
    "psd_eval",
    "abs_acf_integral",
    "spectral_functional",
]

_TWO_PI = 2.0 * math.pi


class ModelKind(enum.Enum):
    """Built-in autocorrelation families."""

    ORNSTEIN_UHLENBECK = "ou"
    GAUSSIAN_KERNEL = "gauss"
    TRIANGULAR = "tri"


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
            name = _SCALE_NAME[self.kind]
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

    # --- named parameter views --------------------------------------------
    @property
    def rate(self) -> float:
        self._require(ModelKind.ORNSTEIN_UHLENBECK, "rate")
        return self.scale

    @property
    def width(self) -> float:
        self._require(ModelKind.GAUSSIAN_KERNEL, "width")
        return self.scale

    @property
    def support(self) -> float:
        self._require(ModelKind.TRIANGULAR, "support")
        return self.scale

    def _require(self, kind: ModelKind, name: str) -> None:
        if self.kind is not kind:
            raise ValueError(f"{name} is only defined for {kind.value!r} models")

    # --- autocorrelation and spectral density ------------------------------
    def acf(self, tau):
        """Autocorrelation R(tau); exactly even in tau."""
        t = np.abs(np.asarray(tau, dtype=float))
        if self.kind is ModelKind.ORNSTEIN_UHLENBECK:
            out = self.power * np.exp(-self.scale * t)
        elif self.kind is ModelKind.GAUSSIAN_KERNEL:
            out = self.power * np.exp(-(t * t) / (2.0 * self.scale**2))
        else:
            out = self.power * np.maximum(0.0, 1.0 - t / self.scale)
        return out if out.ndim else float(out)

    def psd(self, lam):
        """Power spectral density f(lam) >= 0; exactly even in lam."""
        x = np.asarray(lam, dtype=float)
        if self.kind is ModelKind.ORNSTEIN_UHLENBECK:
            a = self.scale
            out = self.power * a / (math.pi * (a * a + x * x))
        elif self.kind is ModelKind.GAUSSIAN_KERNEL:
            s = self.scale
            out = (self.power * s / math.sqrt(_TWO_PI)) * np.exp(-(s * s) * (x * x) / 2.0)
        else:
            tau0 = self.scale
            # sin(u)^2/u^2 with the removable singularity at u = 0; np.sinc
            # evaluates sin(pi y)/(pi y), so u = pi * y.
            u = x * (tau0 / 2.0)
            out = (self.power * tau0 / _TWO_PI) * np.sinc(u / math.pi) ** 2
        return out if out.ndim else float(out)

    def abs_acf_integral(self) -> float:
        """integral |R(tau)| dtau over the whole line, in closed form."""
        if self.kind is ModelKind.ORNSTEIN_UHLENBECK:
            return 2.0 * self.power / self.scale
        if self.kind is ModelKind.GAUSSIAN_KERNEL:
            return self.power * self.scale * math.sqrt(_TWO_PI)
        return self.power * self.scale

    def correlation_time(self) -> float:
        """Characteristic correlation time scale of the model."""
        if self.kind is ModelKind.ORNSTEIN_UHLENBECK:
            return 1.0 / self.scale
        return self.scale

    def acf_breakpoints(self) -> tuple[float, ...]:
        """Points where R is not smooth (used by quadrature panel splitting)."""
        if self.kind is ModelKind.ORNSTEIN_UHLENBECK:
            return (0.0,)
        if self.kind is ModelKind.TRIANGULAR:
            return (-self.scale, 0.0, self.scale)
        return ()


_SCALE_NAME = {
    ModelKind.ORNSTEIN_UHLENBECK: "rate",
    ModelKind.GAUSSIAN_KERNEL: "width",
    ModelKind.TRIANGULAR: "support",
}


# --------------------------------------------------------------------------
# module-level operation names
# --------------------------------------------------------------------------
def acf_eval(model: SpectralModel, tau):
    """Evaluate the autocorrelation R(tau)."""
    return model.acf(tau)


def psd_eval(model: SpectralModel, lam):
    """Evaluate the power spectral density f(lam)."""
    return model.psd(lam)


def abs_acf_integral(model: SpectralModel) -> float:
    """Closed-form integral of |R| over the line — the universal bound
    constant for the operator-norm and Frobenius estimates downstream."""
    return model.abs_acf_integral()


# --------------------------------------------------------------------------
# spectral functionals
# --------------------------------------------------------------------------
def _first_order_tail(model: SpectralModel, lam0: float) -> float:
    """Exact (1/pi) * integral_{lam0}^{inf} 2pi*f(lam) dlam."""
    p, s = model.power, model.scale
    if model.kind is ModelKind.ORNSTEIN_UHLENBECK:
        return (2.0 * p / math.pi) * (math.pi / 2.0 - math.atan(lam0 / s))
    if model.kind is ModelKind.GAUSSIAN_KERNEL:
        return p * float(scipy.special.erfc(s * lam0 / math.sqrt(2.0)))
    x0 = lam0 * s / 2.0
    si, _ = scipy.special.sici(2.0 * x0)
    return (2.0 * p / math.pi) * (math.sin(x0) ** 2 / x0 + math.pi / 2.0 - float(si))


def _power_tail_bound(model: SpectralModel, lam0: float, q: int) -> float:
    """Upper bound on (1/pi) * integral_{lam0}^{inf} (2pi*f)^q dlam."""
    p, s = model.power, model.scale
    if model.kind is ModelKind.GAUSSIAN_KERNEL:
        c = p * s * math.sqrt(_TWO_PI)
        expo = -q * (s * lam0) ** 2 / 2.0
        if expo < -700.0:
            return 0.0
        return (c**q) * math.exp(expo) / (q * s * s * lam0) / math.pi
    if model.kind is ModelKind.ORNSTEIN_UHLENBECK:
        u = 2.0 * p * s  # 2pi*f(lam) <= u / lam^2
    else:
        u = 4.0 * p / s
    return (u**q) / ((2 * q - 1) * lam0 ** (2 * q - 1)) / math.pi


def spectral_functional(model: SpectralModel, g, tol: float = 1e-8) -> float:
    """Compute (1/2pi) * integral over the line of g(2pi*f(lam)) dlam.

    ``g`` is either a positive integer q (the monomial x^q) or the string
    ``"log1p"`` (g(x) = log(1 + x)); for log1p the channel rate is half the
    returned value.  The integral is evaluated as (1/pi) * quadrature on
    [0, Lambda] by evenness; for q = 1 the exact analytic tail is added, for
    log1p the tail is the exact first-order term with a second-order remainder
    bound, and for q >= 2 Lambda is enlarged until the analytic tail bound is
    below tolerance.

    Raises NonConvergedQuadrature when the tolerance cannot be certified
    within the enlargement/subdivision budget.
    """
    if not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")
    log1p = False
    if isinstance(g, str):
        if g != "log1p":
            raise ValueError(f"functional must be 'log1p' or an integer power, got {g!r}")
        log1p = True
        q = 1
    else:
        q = int(g)
        if q != g or q < 1:
            raise ValueError(f"monomial degree must be an integer >= 1, got {g!r}")
    if model.power == 0.0:
        return 0.0

    if log1p:
        def integrand(lam: float) -> float:
            return math.log1p(_TWO_PI * model.psd(lam))
    elif q == 1:
        def integrand(lam: float) -> float:
            return _TWO_PI * model.psd(lam)
    else:
        def integrand(lam: float) -> float:
            return (_TWO_PI * model.psd(lam)) ** q

    char_freq = 1.0 / model.correlation_time()
    lam0 = 10.0 * char_freq
    # Crude magnitude estimate used to convert the relative tolerance into an
    # absolute tail/quadrature budget.
    scale_est, _ = scipy.integrate.quad(integrand, 0.0, lam0, limit=400, epsrel=1e-6)
    scale_est = max(abs(scale_est) / math.pi, 1e-300)

    def remainder(lam: float) -> float:
        # Error left after the analytic tail treatment at truncation lam.
        if log1p:
            # 0 <= x - log(1+x) <= x^2/2 controls the first-order correction.
            return 0.5 * _power_tail_bound(model, lam, 2)
        if q == 1:
            return 0.0  # tail added exactly
        return _power_tail_bound(model, lam, q)

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
    value, err_est = scipy.integrate.quad(
        integrand, 0.0, lam0, limit=4000, epsabs=eps_abs, epsrel=0.25 * tol
    )
    if err_est > max(4.0 * eps_abs, tol * scale_est * math.pi):
        raise NonConvergedQuadrature(
            f"quadrature error estimate {err_est:.3e} exceeds budget on [0, {lam0:.3e}]"
        )
    total = value / math.pi
    if log1p or q == 1:
        total += _first_order_tail(model, lam0)
    return total
