import math

import numpy as np
import pytest

from oucontract.gauss import gauss_hermite_rule, hermite_poly


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gauss_hermite_weights_sum_to_one(d):
    rule = gauss_hermite_rule(d, 40)
    assert abs(float(np.sum(rule.weights)) - 1.0) < 1e-10


def test_gaussian_even_moments():
    rule = gauss_hermite_rule(1, 60)
    for k in range(1, 5):
        moment = float(np.sum(rule.weights * rule.nodes[:, 0] ** (2 * k)))
        double_fact = float(np.prod(np.arange(2 * k - 1, 0, -2)))
        assert moment == pytest.approx(double_fact, rel=1e-8)


def test_hermite_base_cases():
    assert hermite_poly(0, 3.7) == 1.0
    assert hermite_poly(1, -1.25) == -1.25
    assert hermite_poly(2, 2.0) == 3.0


def test_hermite_symbolic_values():
    # He_4 = x^4 - 6 x^2 + 3 from expanding the recurrence
    assert hermite_poly(4, 1.0) == pytest.approx(-2.0, abs=1e-14)
    x = np.linspace(-3, 3, 31)
    assert np.allclose(hermite_poly(4, x), x**4 - 6 * x**2 + 3, atol=1e-11)


def test_hermite_degree_cap():
    with pytest.raises(ValueError):
        hermite_poly(13, 0.0)


def test_hermite_orthogonality():
    rule = gauss_hermite_rule(1, 40)
    x = rule.nodes[:, 0]
    for j in range(7):
        for k in range(7):
            val = float(np.sum(rule.weights * hermite_poly(j, x) * hermite_poly(k, x)))
            expected = math.factorial(k) if j == k else 0.0
            assert val == pytest.approx(expected, abs=1e-6)
