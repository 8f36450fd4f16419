"""Symbolic probability distributions and their sampling.

A spec is a constructor name and its arguments; the constructors and
their rules live in ``scenic.ast`` (DISTRIBUTIONS, distribution_errors).

Truncated normals are drawn by rejection against the parent normal,
capped at 10,000 inner draws, with an inverse-CDF fallback (rational
approximation) so sampling stays exact-in-distribution and bounded in
time even for extreme truncations.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .scenic import ast as _ast

_TRUNC_REJECTION_CAP = 10_000


@dataclass(frozen=True)
class DistributionSpec:
    """One symbolic distribution, made by the checked constructor ``of``."""

    name: str
    args: tuple

    @classmethod
    def of(cls, name: str, args) -> "DistributionSpec":
        """Raises ValueError with the first rule broken; numbers become floats."""
        args = tuple(args)
        errors = _ast.distribution_errors(name, args)
        if errors:
            raise ValueError(errors[0])
        if _ast.DISTRIBUTIONS[name]:
            args = tuple(map(float, args))
        return cls(name, args)

    @classmethod
    def normal(cls, mu: float, sigma: float) -> "DistributionSpec":
        return cls.of("Normal", (mu, sigma))

    @classmethod
    def truncated_normal(cls, mu: float, sigma: float, low: float, high: float) -> "DistributionSpec":
        return cls.of("TruncatedNormal", (mu, sigma, low, high))

    @classmethod
    def uniform_choice(cls, options) -> "DistributionSpec":
        return cls.of("Uniform", options)

    @classmethod
    def uniform_range(cls, low: float, high: float) -> "DistributionSpec":
        return cls.of("Range", (low, high))


def sample_value(spec: DistributionSpec, rng: random.Random):
    """Draw one concrete value from a distribution spec."""
    name, args = spec.name, spec.args
    if name == "Normal":
        return rng.gauss(*args)
    if name == "TruncatedNormal":
        return _sample_truncated(*args, rng)
    if name == "Uniform":
        return args[rng.randrange(len(args))]
    if name == "Range":
        return rng.uniform(*args)
    raise ValueError(f"unknown distribution: {name!r}")


def _sample_truncated(mu: float, sigma: float, low: float, high: float, rng) -> float:
    for _ in range(_TRUNC_REJECTION_CAP):
        x = rng.gauss(mu, sigma)
        if low <= x <= high:
            return x
    # the acceptance region is so small rejection never landed; invert the
    # CDF restricted to [low, high]
    a = _normal_cdf((low - mu) / sigma)
    b = _normal_cdf((high - mu) / sigma)
    u = rng.uniform(a, b)
    x = mu + sigma * _inverse_normal_cdf(u)
    return min(max(x, low), high)


def _normal_cdf(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


# Rational approximation of the standard normal quantile (Acklam-style
# coefficients); relative error below 1.2e-9 over the open unit interval.
_ICDF_A = (
    -3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
    1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00,
)
_ICDF_B = (
    -5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
    6.680131188771972e+01, -1.328068155288572e+01,
)
_ICDF_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
    -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00,
)
_ICDF_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
    3.754408661907416e+00,
)


def _inverse_normal_cdf(p: float) -> float:
    if not 0.0 < p < 1.0:
        if p <= 0.0:
            return -math.inf
        return math.inf
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        c, d = _ICDF_C, _ICDF_D
        return (
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    if p > 1.0 - p_low:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        c, d = _ICDF_C, _ICDF_D
        return -(
            ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        ) / ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0)
    q = p - 0.5
    r = q * q
    a, b = _ICDF_A, _ICDF_B
    return (
        (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q
    ) / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0)


def distribution_to_source(spec: DistributionSpec) -> str:
    """Render a spec back to program-text form."""
    def num(x: float) -> str:
        return str(int(x)) if float(x).is_integer() else repr(x)

    args = ", ".join(repr(a) if isinstance(a, str) else num(a) for a in spec.args)
    return f"{spec.name}({args})"


def distribution_from_expr(expr) -> DistributionSpec | None:
    """Interpret a parsed distribution call with constant arguments.

    Returns None when the expression is not a distribution call or its
    parameters are not statically legal; callers treat None as
    "unparseable" and fall back.
    """
    if not (isinstance(expr, _ast.Call) and isinstance(expr.func, _ast.Name)):
        return None
    name = expr.func.id
    if name not in _ast.DIST_FUNCTIONS or expr.kwargs:
        return None
    fold = _ast.fold_number if _ast.DISTRIBUTIONS[name] else _literal_value
    values = [fold(arg) for arg in expr.args]
    if None in values:
        return None
    try:
        return DistributionSpec.of(name, values)
    except ValueError:
        return None


def _literal_value(node):
    return node.value if isinstance(node, _ast.StringLit) else _ast.fold_number(node)
