import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from netmanifold import (
    DegenerateDesignError,
    ValidationError,
    f_quantile,
    f_test,
    fit_local_linear,
    fit_slr,
    predict_slr,
)
from netmanifold import regression
from netmanifold.regression import RegressionFit, f_statistic

# upper-0.05 quantile of F(1, 3); standard-table value, frozen from an
# independent computation
F_1_3_CRITICAL = 10.127964486013928

# (F, df2, survival of F(1, df2) at F) and (df2, upper-0.05 quantile of
# F(1, df2)), computed with mpmath at 50 digits. The large statistics sit in
# the tail, where 1 - CDF would cancel.
F_SURVIVAL_REFERENCE = [
    (477.83478960789995, 10, 8.9842031177294549081e-10),
    (3000.0, 10, 9.9740182514672861321e-14),
    (40.0, 28, 7.6764655309804017225e-7),
]
F_UPPER_05_REFERENCE = [
    (3, 10.127964486013934115),
    (10, 4.9646027437307143713),
    (28, 4.1959718185577656104),
]


def test_fit_slr_constant_responses():
    fit = fit_slr([0.0, 1.0, 2.0], [4.0, 4.0, 4.0])
    assert fit.slope == 0.0
    assert fit.intercept == 4.0


def test_fit_slr_hand_ols():
    fit = fit_slr([0.0, 1.0, 2.0], [0.0, 0.0, 3.0])
    assert fit.slope == pytest.approx(1.5, abs=1e-15)
    assert fit.intercept == pytest.approx(-0.5, abs=1e-15)
    assert fit.sample_size == 3


def test_fit_slr_degenerate_and_validation():
    with pytest.raises(DegenerateDesignError):
        fit_slr([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValidationError):
        fit_slr([1.0], [2.0])
    with pytest.raises(ValidationError):
        fit_slr([1.0, 2.0], [1.0])
    with pytest.raises(ValidationError):
        fit_slr([1.0, np.nan], [1.0, 2.0])


def test_predict_slr_arithmetic():
    assert predict_slr(RegressionFit(2.0, 5.0, 2, 0.0, 2.0), 0.5) == 4.5


@settings(max_examples=60, deadline=None)
@given(
    c=st.floats(min_value=0.05, max_value=20.0),
    m=st.floats(min_value=-50.0, max_value=50.0),
    flip=st.booleans(),
)
def test_prediction_affine_invariance(c, m, flip):
    """Rescaling and shifting the regressors never moves a prediction."""
    if flip:
        c = -c
    zs = np.array([0.3, 1.1, 1.9, 2.2, 3.0])
    ys = np.array([1.0, 2.2, 2.9, 3.4, 4.8])
    target = 2.5
    base = predict_slr(fit_slr(zs, ys), target)
    moved = predict_slr(fit_slr(c * zs + m, ys), c * target + m)
    assert moved == pytest.approx(base, rel=1e-10)


def test_f_statistic_hand_values():
    ys = [0.0, 0.0, 3.0]
    fit = fit_slr([0.0, 1.0, 2.0], ys)
    fitted = [predict_slr(fit, z) for z in [0.0, 1.0, 2.0]]
    assert f_statistic(ys, fitted) == pytest.approx(3.0, abs=1e-12)
    assert f_statistic(ys, [1.0, 1.0, 1.0]) == 0.0  # fitted == mean
    assert f_statistic([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == math.inf


def test_f_statistic_validation():
    with pytest.raises(ValidationError):
        f_statistic([1.0, 2.0], [1.0, 2.0])


def test_f_quantile_table_value():
    assert abs(f_quantile(0.95, 1, 3) - F_1_3_CRITICAL) < 1e-3
    assert f_quantile(0.95, 1, 3) == pytest.approx(
        float(stats.f.ppf(0.95, 1, 3)), abs=1e-8
    )


def test_f_quantile_matches_scipy_across_dfs():
    for df2 in [1, 2, 3, 10, 28]:
        for p in [0.5, 0.9, 0.95, 0.99]:
            assert f_quantile(p, 1, df2) == pytest.approx(
                float(stats.f.ppf(p, 1, df2)), abs=1e-8
            )


@pytest.mark.parametrize("df2, expected", F_UPPER_05_REFERENCE)
def test_f_quantile_matches_high_precision_reference(df2, expected):
    assert f_quantile(0.95, 1, df2) == pytest.approx(expected, rel=1e-13, abs=0)


@pytest.mark.parametrize("f_value, df2, expected", F_SURVIVAL_REFERENCE)
def test_f_test_p_value_matches_high_precision_reference(
    monkeypatch, f_value, df2, expected
):
    """The p-value keeps full relative precision far out in the upper tail."""
    monkeypatch.setattr(regression, "f_statistic", lambda ys, fitted: f_value)
    zs = np.arange(df2 + 2, dtype=float)
    report = f_test(zs, np.sin(zs))
    assert report.df == (1, df2)
    assert report.p_value == pytest.approx(expected, rel=1e-13, abs=0)


@pytest.mark.parametrize(
    "p, df1, df2", [(0.0, 1, 3), (1.0, 1, 3), (0.5, 0, 3), (0.5, 1, 0)]
)
def test_f_quantile_validation(p, df1, df2):
    with pytest.raises(ValidationError):
        f_quantile(p, df1, df2)


def test_slope_test_imports_scipy_special_on_first_use():
    code = "import sys, netmanifold.pipeline; print('scipy.special' in sys.modules)"
    src = pathlib.Path(regression.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "False"


def test_f_test_report_fields():
    report = f_test([0.0, 1.0, 2.0, 3.0, 4.0], [2.1, 2.4, 3.3, 3.5, 4.6])
    assert report.df == (1, 3)
    assert report.level == 0.05
    assert 0.0 <= report.p_value <= 1.0
    assert report.reject == (report.f_value > report.critical_value)
    # cross-check the p-value against the scipy survival function
    assert report.p_value == pytest.approx(
        float(stats.f.sf(report.f_value, 1, 3)), abs=1e-10
    )


def test_f_test_rejects_perfect_line():
    report = f_test([0.0, 1.0, 2.0], [1.0, 3.0, 5.0])
    assert report.f_value == math.inf
    assert report.reject
    assert report.p_value == 0.0


def test_f_test_validation():
    with pytest.raises(ValidationError):
        f_test([0.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValidationError):
        f_test([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], level=1.0)


def test_f_test_size_quick():
    """Null rejection rate at level 0.05 lands near 0.05 (coarse version)."""
    rng = np.random.default_rng(55)
    rejections = 0
    reps = 400
    for _ in range(reps):
        zs = rng.uniform(0.25, 1.0, 12)
        ys = 2.0 + rng.normal(0.0, 0.1, 12)
        rejections += f_test(zs, ys).reject
    assert 0.01 < rejections / reps < 0.10


def _local_linear_oracle(zs, ys, bandwidth, query):
    w = np.exp(-((zs - query) ** 2) / (2.0 * bandwidth**2))
    design = np.stack([np.ones_like(zs), zs - query], axis=1)
    wls = np.linalg.solve(
        design.T @ (w[:, None] * design), design.T @ (w * ys)
    )
    return wls[0]


def test_fit_local_linear_matches_weighted_ols_oracle():
    zs = np.array([0.46, 0.5, 0.55])
    ys = np.array([1.0, 2.0, 4.0])
    value = fit_local_linear(zs, ys, 0.03, 0.5)
    assert value == pytest.approx(_local_linear_oracle(zs, ys, 0.03, 0.5), rel=1e-10)


def test_fit_local_linear_reproduces_lines():
    rng = np.random.default_rng(8)
    zs = rng.uniform(0.0, 1.0, 15)
    ys = 1.5 - 2.0 * zs
    for query in [0.2, 0.5, 0.9]:
        assert fit_local_linear(zs, ys, 0.1, query) == pytest.approx(
            1.5 - 2.0 * query, rel=1e-8
        )


def test_fit_local_linear_degenerate_far_query():
    zs = np.array([0.0, 0.001, 0.002])
    with pytest.raises(DegenerateDesignError):
        fit_local_linear(zs, np.array([1.0, 2.0, 3.0]), 1e-3, 1000.0)
    with pytest.raises(ValidationError):
        fit_local_linear(zs, np.array([1.0, 2.0, 3.0]), 0.0, 0.5)
