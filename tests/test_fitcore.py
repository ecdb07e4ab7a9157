import tracemalloc

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


def _exponential_column(x, t):
    # Each pixel's row of params holds its own sample times.
    rate = t[:, np.newaxis] / x[..., np.newaxis]
    g = np.exp(-rate)
    return g, g * rate


def test_fit_scaled_column_recovers_exponential():
    t = np.linspace(0.0, 1.0, 9)
    taus = np.array([0.02, 0.3, 4.0])
    times = np.tile(t, (3, 1))
    fit = fitcore.fit_scaled_column(
        _exponential_column, 2.0 * np.exp(-t / taus[:, np.newaxis]),
        (0.01, 10.0), times)
    npt.assert_allclose(fit.x, taus, rtol=1e-9)
    npt.assert_allclose(fit.amp, 2.0, rtol=1e-9)
    assert np.all(fit.cost < 1e-20) and not np.any(fit.at_bound)


def test_fit_scaled_column_pins_at_a_bound():
    t = np.linspace(0.0, 1.0, 9)
    fit = fitcore.fit_scaled_column(_exponential_column,
                                    np.exp(-t / 5.0)[np.newaxis],
                                    (0.01, 1.0), t[np.newaxis])
    assert fit.x[0] == 1.0 and fit.at_bound[0]


def test_fit_scaled_column_keeps_amplitude_non_negative():
    # Data anti-correlated with every column: the best amplitude is 0 and
    # the cost is the data's own squared norm.
    t = np.linspace(0.0, 1.0, 9)
    d = -np.exp(-t / 0.3)
    d[-1] = 1e-3
    fit = fitcore.fit_scaled_column(_exponential_column, d[np.newaxis],
                                    (0.01, 10.0), t[np.newaxis])
    assert fit.amp[0] == 0.0
    assert fit.cost[0] == pytest.approx(d @ d, rel=1e-14)


def test_fit_scaled_column_skips_rows_without_positive_data():
    t = np.linspace(0.0, 1.0, 9)
    d = np.stack([np.zeros(9), -np.exp(-t), np.exp(-t / 0.3)])
    fit = fitcore.fit_scaled_column(_exponential_column, d, (0.01, 10.0),
                                    np.tile(t, (3, 1)))
    for field in fit:
        assert not np.any(field[:2])
    assert fit.x[2] == pytest.approx(0.3, rel=1e-9)


def _noisy_rows(n, seed=0):
    # Decays with per-pixel sample times, taus and noise.
    rng = np.random.default_rng(seed)
    times = np.sort(rng.uniform(0.0, 1.0, (n, 6)), axis=1)
    taus = rng.uniform(0.02, 3.0, (n, 1))
    d = np.exp(-times / taus) + 1e-3 * rng.standard_normal((n, 6))
    return d, times


@pytest.mark.parametrize("block", [1, 7 * 128 * 6, 1 << 30])
def test_fit_scaled_column_rows_are_independent(block, monkeypatch):
    # A row's result is bit-equal whether it is fitted alone, among others
    # or in blocks of any size.
    d, times = _noisy_rows(40)
    bounds = (0.01, 5.0)
    full = fitcore.fit_scaled_column(_exponential_column, d, bounds, times)
    monkeypatch.setattr(fitcore, "_BLOCK_ELEMENTS", block)
    some = slice(3, 40, 7)
    part = fitcore.fit_scaled_column(_exponential_column, d[some], bounds,
                                     times[some])
    for a, b in zip(full, part):
        assert a[some].tobytes() == b.tobytes()
    for i in (0, 17):
        one = fitcore.fit_scaled_column(_exponential_column, d[i:i + 1],
                                        bounds, times[i:i + 1])
        for a, b in zip(full, one):
            assert a[i:i + 1].tobytes() == b.tobytes()


def test_fit_scaled_column_memory_does_not_grow_with_pixels():
    # The scan's (pixels, points, data) temporaries are taken a block of
    # pixels at a time, so ten times the pixels stays within twice the peak.
    peaks = []
    for n in (5_000, 50_000):
        d, times = _noisy_rows(n, seed=1)
        tracemalloc.start()
        try:
            fitcore.fit_scaled_column(_exponential_column, d, (0.01, 5.0),
                                      times)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0]
