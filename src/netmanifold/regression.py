"""Simple linear regression on embeddings, F-testing, and a local-linear fit.

F quantiles and survival values come from scipy.special.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDesignError, ValidationError


@dataclass(frozen=True)
class RegressionFit:
    """Ordinary least squares line fit over labeled pairs."""

    intercept: float
    slope: float
    sample_size: int
    regressor_mean: float
    response_mean: float


@dataclass(frozen=True)
class TestReport:
    """Outcome of the slope F-test at a given level."""

    f_value: float
    df: tuple
    critical_value: float
    p_value: float
    reject: bool
    level: float


def _as_1d(name, values):
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be one-dimensional")
    if not np.isfinite(arr).all():
        raise ValidationError(f"{name} must be finite")
    return arr


def fit_slr(zs, ys):
    """Least squares slope and intercept of ys on zs.

    b̂ = sum (y - ȳ)(z - z̄) / sum (z - z̄)^2 and â = ȳ - b̂ z̄. Raises
    DegenerateDesignError when the regressors carry no variation.
    """
    z = _as_1d("regressors", zs)
    y = _as_1d("responses", ys)
    if z.size != y.size:
        raise ValidationError("regressors and responses must have equal length")
    if z.size < 2:
        raise ValidationError("need at least two points to fit a line")
    z_mean = z.mean()
    y_mean = y.mean()
    denom = float(((z - z_mean) ** 2).sum())
    if denom == 0.0:
        raise DegenerateDesignError("regressors are all identical; slope undefined")
    slope = float(((y - y_mean) * (z - z_mean)).sum()) / denom
    return RegressionFit(
        intercept=float(y_mean - slope * z_mean),
        slope=float(slope),
        sample_size=int(z.size),
        regressor_mean=float(z_mean),
        response_mean=float(y_mean),
    )


def predict_slr(fit, z):
    """Evaluate the fitted line: â + b̂ z."""
    return float(fit.intercept + fit.slope * z)


def f_statistic(ys, fitted):
    """Slope F-statistic (s - 2) * SSR / SSE from observed and fitted values.

    A perfect fit (zero residual sum of squares) returns +inf; callers report
    it as a rejection with p = 0.
    """
    y = _as_1d("responses", ys)
    yhat = _as_1d("fitted values", fitted)
    if y.size != yhat.size:
        raise ValidationError("responses and fitted values must have equal length")
    s = y.size
    if s < 3:
        raise ValidationError("the F-test needs at least 3 points (df = s - 2 >= 1)")
    y_mean = y.mean()
    ssr = float(((yhat - y_mean) ** 2).sum())
    sse = float(((y - yhat) ** 2).sum())
    if sse == 0.0:
        return math.inf
    return (s - 2) * ssr / sse


def f_quantile(p, df1, df2):
    """Quantile of the F(df1, df2) distribution."""
    if not 0.0 < p < 1.0:
        raise ValidationError("quantile probability must lie in (0, 1)")
    if df1 < 1 or df2 < 1:
        raise ValidationError("degrees of freedom must be >= 1")
    from scipy.special import fdtri  # on first use: consistency runs never need it

    return float(fdtri(df1, df2, p))


def f_test(zs, ys, level=0.05):
    """Test H0: slope = 0 against a two-sided alternative.

    Fits the line, forms the F-statistic from its fitted values, and
    compares against the (1 - level) quantile of F(1, s - 2). The p-value
    is the F(1, s - 2) survival function at the statistic, so a perfect fit
    (infinite statistic) gets p = 0.
    """
    z = _as_1d("regressors", zs)
    y = _as_1d("responses", ys)
    if z.size < 3:
        raise ValidationError("the F-test needs at least 3 labeled points")
    if not 0.0 < level < 1.0:
        raise ValidationError("level must lie in (0, 1)")
    fit = fit_slr(z, y)
    fitted = fit.intercept + fit.slope * z
    f_value = f_statistic(y, fitted)
    df2 = z.size - 2
    critical = f_quantile(1.0 - level, 1, df2)
    from scipy.special import fdtrc  # on first use: consistency runs never need it

    return TestReport(
        f_value=f_value,
        df=(1, df2),
        critical_value=critical,
        p_value=float(fdtrc(1, df2, f_value)),
        reject=f_value > critical,
        level=level,
    )


def fit_local_linear(zs, ys, bandwidth, query):
    """Local-linear estimate at one query point with a Gaussian kernel.

    Weights are exp(-(z - query)^2 / (2 * bandwidth^2)); the returned value
    is the local intercept of the weighted least squares line centered at
    the query. Needs at least two points with nonzero weight (in floating
    point, weights underflow far from the query).
    """
    z = _as_1d("regressors", zs)
    y = _as_1d("responses", ys)
    if z.size != y.size:
        raise ValidationError("regressors and responses must have equal length")
    if bandwidth <= 0.0:
        raise ValidationError("bandwidth must be positive")
    u = z - query
    w = np.exp(-(u * u) / (2.0 * bandwidth * bandwidth))
    if int((w > 0.0).sum()) < 2:
        raise DegenerateDesignError(
            f"fewer than two points carry weight at query {query:g}; "
            "increase the bandwidth"
        )
    s0 = float(w.sum())
    s1 = float((w * u).sum())
    s2 = float((w * u * u).sum())
    t0 = float((w * y).sum())
    t1 = float((w * u * y).sum())
    det = s0 * s2 - s1 * s1
    if det <= 0.0 or not math.isfinite(det):
        raise DegenerateDesignError(
            "weighted design is singular at the query; increase the bandwidth"
        )
    return (s2 * t0 - s1 * t1) / det
