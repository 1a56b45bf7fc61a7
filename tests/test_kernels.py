import math

import numpy as np
import pytest

import reference_forms as ref
from mixvae.errors import NumericError
from mixvae.kernels import (
    finite_difference_grad,
    log_softmax,
    sigmoid,
    softplus,
)
from mixvae.model import BERNOULLI_EPS
from mixvae.rng import RngState
from reference_forms import same_bits


class TestSoftmax:
    """The softmax the model takes q(y|x) from: exp(log_softmax(v))."""

    @staticmethod
    def softmax(v):
        return np.exp(log_softmax(v))

    def test_symmetry(self):
        assert np.allclose(self.softmax(np.array([0.0, 0.0])), [0.5, 0.5], atol=1e-15)

    def test_shifted_closed_form(self):
        v = np.array([1000.0, 1000.0 + math.log(3)])
        assert np.allclose(log_softmax(v), [-math.log(4), math.log(0.75)], atol=1e-12)
        assert np.allclose(self.softmax(v), [0.25, 0.75], atol=1e-12)

    def test_single_component(self):
        assert np.array_equal(log_softmax(np.array([5.0])), [0.0])
        assert np.allclose(self.softmax(np.array([5.0])), [1.0])

    def test_sum_and_shift_invariance(self):
        rng = RngState(8, (2,))
        for _ in range(200):
            v = rng.normal(6) * 5
            c = float(rng.normal()) * 50
            s = self.softmax(v)
            assert abs(s.sum() - 1.0) < 1e-12
            assert np.all(s > 0)
            assert -math.log(len(v)) - 1e-12 <= log_softmax(v).max() <= 0.0
            assert np.allclose(log_softmax(v), log_softmax(v + c), atol=1e-12)
            assert np.allclose(s, self.softmax(v + c), atol=1e-12)


class TestSoftplus:
    def test_zero(self):
        assert softplus(0.0) == pytest.approx(math.log(2), abs=1e-12)

    def test_large_asymptote(self):
        assert softplus(50.0) == pytest.approx(50.0, abs=1e-12)

    def test_small_tail(self):
        out = float(softplus(-40.0))
        assert out > 0
        assert out == pytest.approx(math.exp(-40), rel=1e-6)

    def test_passed_exp_term_gives_the_same_bits(self):
        x = np.concatenate([RngState(10, (3,)).uniform(-800, 800, 1000),
                            [0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 746.0, -746.0]])
        want = ref.softplus(x)
        assert same_bits(softplus(x), want)
        assert same_bits(softplus(x, np.exp(-np.abs(x))), want)

    def test_positivity_and_gap_property(self):
        rng = RngState(9, (3,))
        x = rng.uniform(-700, 700, 1000)
        sp = softplus(x)
        assert np.all(sp > 0)
        gap = sp - np.maximum(x, 0.0)
        assert np.all(gap >= 0)
        assert np.all(gap <= math.log(2) + 1e-12)


class TestSigmoid:
    def test_extremes_safe(self):
        out = sigmoid(np.array([-1000.0, 0.0, 1000.0]))
        assert np.all(np.isfinite(out))
        assert out[1] == 0.5

    @staticmethod
    def masked_two_branch(x):
        """Reference: the boolean-indexed two-branch logistic."""
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    def test_same_bits_as_masked_two_branch(self):
        edges = [0.0, -0.0, np.inf, -np.inf, 745.0, -745.0, 800.0, -800.0]
        x = np.concatenate([RngState(3, (41,)).uniform(-30.0, 30.0, 2000), edges])
        with np.errstate(over="ignore", under="ignore"):
            want = self.masked_two_branch(x)
        got = sigmoid(x)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_nan_stays_nan(self):
        assert np.isnan(sigmoid(np.array([np.nan, 1.0]))[0])

    def test_one_divide_gives_the_bits_of_the_two_divide_form(self):
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 746.0, -746.0]
        x = np.concatenate([20.0 * RngState(4, (41,)).normal(2000), edges])
        e = np.exp(-np.abs(x))
        with np.errstate(invalid="ignore"):
            want = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
            got = sigmoid(x)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_maximum_numerator_gives_the_bits_of_where(self):
        # maximum(e, x >= 0) for where(x >= 0, 1, e), with e computed here or passed in
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 746.0, -746.0,
                 BERNOULLI_EPS, -BERNOULLI_EPS, 1.0 - BERNOULLI_EPS, BERNOULLI_EPS - 1.0]
        edges += [np.nextafter(v, t) for v in edges[9:] for t in (-np.inf, np.inf)]
        x = np.concatenate([20.0 * RngState(5, (41,)).normal(2000), edges])
        with np.errstate(invalid="ignore"):
            want = ref.sigmoid(x)
            assert same_bits(sigmoid(x), want)
            assert same_bits(sigmoid(x, np.exp(-np.abs(x))), want)
            assert same_bits(sigmoid(x[::3]), want[::3])  # a strided view
            for v in edges:
                assert same_bits(sigmoid(v), ref.sigmoid(np.float64(v)))


class TestBernoulliClamp:
    def test_maximum_then_minimum_gives_the_bits_of_clip(self):
        # the Bernoulli head's clamp, at, next to and beyond both bounds
        lo, hi = BERNOULLI_EPS, 1.0 - BERNOULLI_EPS
        edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, -1.0, 2.0]
        edges += [np.nextafter(v, t) for v in (lo, hi) for t in (-np.inf, np.inf)] + [lo, hi]
        p = np.concatenate([RngState(6, (41,)).uniform(-0.5, 1.5, 2000), edges])
        got = p.copy()
        np.maximum(got, lo, out=got)
        np.minimum(got, hi, out=got)
        assert same_bits(got, np.clip(p, lo, hi))


class TestLogSoftmax:
    def test_ufunc_reductions_give_the_bits_of_the_wrappers(self):
        v = 30.0 * RngState(7, (41,)).normal((50, 6))
        v[0] = [0.0, -0.0, 700.0, -700.0, 1e-300, -1e-300]
        v[1] = 745.0
        v[2, :3] = -746.0
        for axis in (0, 1, -1):
            assert same_bits(log_softmax(v, axis=axis), ref.log_softmax(v, axis=axis))
        assert same_bits(log_softmax(v[3]), ref.log_softmax(v[3]))

    @pytest.mark.parametrize("bad_row", [[0.0, np.inf, 0.0], [np.nan, 0.0, 1.0],
                                         [-np.inf, -np.inf, -np.inf]])
    def test_a_row_with_a_non_finite_max_is_rejected(self, bad_row):
        v = np.zeros((3, 3))
        v[1] = bad_row
        with pytest.raises(NumericError):
            log_softmax(v, axis=1)


class TestFiniteDifferences:
    def test_quadratic(self):
        g = finite_difference_grad(lambda v: float(v[0] ** 2), np.array([3.0]), 1e-4)
        assert g[0] == pytest.approx(6.0, abs=1e-7)

    def test_constant(self):
        g = finite_difference_grad(lambda v: 1.5, np.array([1.0, -2.0, 0.3]))
        assert np.array_equal(g, np.zeros(3))

    def test_linear_exact(self):
        a = np.array([2.0, -1.0, 0.5])
        g = finite_difference_grad(lambda v: float(a @ v), np.zeros(3), 1e-5)
        assert np.allclose(g, a, atol=1e-9)

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            finite_difference_grad(lambda v: 0.0, np.zeros(2), h=0.0)

    def test_nonfinite_evaluation(self):
        with pytest.raises(NumericError):
            finite_difference_grad(lambda v: float("nan"), np.zeros(2))
