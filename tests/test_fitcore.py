import numpy as np
import numpy.testing as npt
import pytest

from qmapkit import fitcore


def test_lsq_solve_exact_system():
    a = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 7.0]])
    x_true = np.array([2.0, -1.0])
    res = fitcore.lsq_solve(a, a @ x_true)
    npt.assert_allclose(res.x, x_true, atol=1e-12)
    assert res.residual_norm < 1e-12
    assert res.rank == 2 and not res.rank_deficient


def test_lsq_solve_residual_orthogonality():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    res = fitcore.lsq_solve(a, b)
    r = a @ res.x - b
    rel = np.linalg.norm(a.conj().T @ r) / (
        np.linalg.norm(a) * np.linalg.norm(b))
    assert rel < 1e-9


def test_lsq_solve_rank_deficient():
    a = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])  # rank 1
    res = fitcore.lsq_solve(a, np.array([1.0, 2.0, 3.0]))
    assert res.rank_deficient
    # Minimum-norm solution of the consistent system.
    npt.assert_allclose(res.x, [0.2, 0.4], atol=1e-12)


def test_lsq_solve_shape_errors():
    with pytest.raises(ValueError):
        fitcore.lsq_solve(np.ones(3), np.ones(3))
    with pytest.raises(ValueError):
        fitcore.lsq_solve(np.ones((3, 2)), np.ones(4))


def test_solve_boxed_interior_minimum():
    def residual(x):
        return np.array([x[0] - 1.5, 2.0 * (x[1] + 0.25)])

    res = fitcore.solve_boxed(residual, x0=[0.1, 0.1], lower=[-1.0, -1.0],
                              upper=[3.0, 3.0])
    assert res.converged
    npt.assert_allclose(res.x, [1.5, -0.25], atol=1e-6)
    assert res.cost < 1e-12


def test_solve_boxed_lands_on_active_bound():
    def residual(x):
        return np.array([x[0] - 5.0])

    res = fitcore.solve_boxed(residual, x0=[0.5], lower=[0.0], upper=[2.0])
    npt.assert_allclose(res.x, [2.0], atol=1e-9)


def test_solve_boxed_nonlinear_exponential():
    t = np.linspace(0.0, 1.0, 9)
    data = 2.0 * np.exp(-t / 0.3)

    def residual(x):
        return x[0] * np.exp(-t / x[1]) - data

    res = fitcore.solve_boxed(residual, x0=[1.0, 0.6], lower=[0.0, 0.01],
                              upper=[10.0, 5.0], tol=1e-12)
    npt.assert_allclose(res.x, [2.0, 0.3], rtol=1e-6)


def test_solve_boxed_argument_checks():
    r = lambda x: x
    with pytest.raises(ValueError):
        fitcore.solve_boxed(r, x0=[0.0], lower=[1.0], upper=[0.5])
    with pytest.raises(ValueError):
        fitcore.solve_boxed(r, x0=[1.0], lower=[1.0], upper=[2.0])


def _exponential_column(t):
    def column(x):
        g = np.exp(-t / x[..., np.newaxis])
        return g, g * t / x[..., np.newaxis]
    return column


def test_fit_scaled_column_recovers_exponential():
    t = np.linspace(0.0, 1.0, 9)
    column = _exponential_column(t)
    for tau in (0.02, 0.3, 4.0):
        fit = fitcore.fit_scaled_column(column, 2.0 * np.exp(-t / tau),
                                        (0.01, 10.0))
        assert fit.x == pytest.approx(tau, rel=1e-9)
        assert fit.amp == pytest.approx(2.0, rel=1e-9)
        assert fit.cost < 1e-20 and not fit.at_bound


def test_fit_scaled_column_pins_at_a_bound():
    t = np.linspace(0.0, 1.0, 9)
    fit = fitcore.fit_scaled_column(_exponential_column(t),
                                    np.exp(-t / 5.0), (0.01, 1.0))
    assert fit.x == 1.0 and fit.at_bound


def test_fit_scaled_column_keeps_amplitude_non_negative():
    # Data anti-correlated with every column: the best amplitude is 0 and
    # the cost is the data's own squared norm.
    t = np.linspace(0.0, 1.0, 9)
    d = -np.exp(-t / 0.3)
    fit = fitcore.fit_scaled_column(_exponential_column(t), d, (0.01, 10.0))
    assert fit.amp == 0.0
    assert fit.cost == pytest.approx(d @ d, rel=1e-14)
