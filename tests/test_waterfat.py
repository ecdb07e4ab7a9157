import dataclasses
import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from qmapkit import fitcore, waterfat
from qmapkit.constants import GAMMA, OMEGA_CS

TIMES = (0.002, 0.004, 0.006, 0.008, 0.010)

# Small search grid keeps the reference path affordable.
TINY = waterfat.WfConfig(
    times=TIMES, t2s_min=0.010, t2s_max=0.100, t2s_points=5,
    d_omega_step=2.0 * np.pi * 4.0, omega_bound=2.0 * np.pi * 20.0)


def test_config_validation():
    with pytest.raises(ValueError):
        waterfat.WfConfig(times=(0.002, 0.004, 0.006, 0.008))
    with pytest.raises(ValueError):
        waterfat.WfConfig(times=(0.004, 0.002, 0.006, 0.008, 0.010))
    with pytest.raises(ValueError):
        waterfat.WfConfig(times=TIMES, t2s_min=0.0)
    with pytest.raises(ValueError):
        waterfat.WfConfig(times=TIMES, t2s_min=0.05, t2s_max=0.02)
    with pytest.raises(ValueError):
        waterfat.WfConfig(times=TIMES, t2s_points=1)
    with pytest.raises(ValueError, match="no signal"):
        waterfat.WfConfig(times=TIMES, t2s_min=1e-6)
    with pytest.raises(ValueError):
        waterfat.WfConfig(times=TIMES, d_omega_step=0.0)
    with pytest.raises(ValueError):
        waterfat.WfConfig(times=TIMES, omega_bound=0.5)
    for name in ("t2s_min", "t2s_max", "d_omega_step", "omega_bound"):
        for value in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                waterfat.WfConfig(times=TIMES, **{name: value})


def test_axes():
    cfg = waterfat.WfConfig(times=TIMES)
    t2s = cfg.t2s_axis()
    assert t2s.size == 40
    assert t2s[0] == pytest.approx(0.003) and t2s[-1] == pytest.approx(0.150)
    assert np.all(np.diff(np.log(t2s)) > 0)

    off = cfg.offset_axis()
    # Default half-width of 60 steps: symmetric, strictly inside the bound.
    assert off.size == 119
    npt.assert_allclose(off, -off[::-1])
    assert off.max() == pytest.approx(2.0 * np.pi * 59.0)
    assert off.max() < cfg.omega_bound
    assert 0.0 in off


def test_design_matrix_columns():
    tw, tf, dw = 0.04, 0.02, 30.0
    a = waterfat.wf_design(TIMES, tw, tf, dw)
    assert a.shape == (5, 2)
    for i, t in enumerate(TIMES):
        carrier = np.exp(1j * dw * t)
        assert a[i, 0] == pytest.approx(carrier * np.exp(-t / tw))
        assert a[i, 1] == pytest.approx(
            carrier * np.exp((1j * OMEGA_CS - 1.0 / tf) * t))


def test_design_solve_exact_and_orthogonal():
    tw, tf, dw = 0.05, 0.025, -40.0
    w, f = 0.7 * np.exp(0.3j), 0.3 * np.exp(-1.1j)
    a = waterfat.wf_design(TIMES, tw, tf, dw)
    clean = a @ np.array([w, f])
    sol = fitcore.lsq_solve(a, clean)
    assert sol.x[0] == pytest.approx(w, rel=1e-10)
    assert sol.x[1] == pytest.approx(f, rel=1e-10)
    assert sol.residual_norm == pytest.approx(0.0, abs=1e-12)
    assert not sol.rank_deficient

    rng = np.random.default_rng(7)
    noisy = clean + 0.05 * (rng.standard_normal(5)
                            + 1j * rng.standard_normal(5))
    sol = fitcore.lsq_solve(a, noisy)
    resid_vec = noisy - a @ sol.x
    assert np.linalg.norm(a.conj().T @ resid_vec) < 1e-9 * np.linalg.norm(noisy)


def test_init_offres_sign_and_validation():
    dw = 50.0
    t = np.asarray(TIMES)
    sig = np.exp(1j * dw * t) * np.exp(-t / 0.04)
    assert waterfat.init_offres(sig[0], sig[2], t[2] - t[0]) == pytest.approx(dw)
    assert waterfat.init_offres(
        np.conj(sig[0]), np.conj(sig[2]), t[2] - t[0]) == pytest.approx(-dw)
    with pytest.raises(ValueError):
        waterfat.init_offres(1.0 + 0j, 1.0 + 0j, 0.0)


def test_water_only_recovery_at_grid_node():
    axis = TINY.t2s_axis()
    tw = float(axis[2])
    dw = 2.0 * np.pi * 12.0
    w = 1.3 * np.exp(0.4j)
    t = np.asarray(TIMES)
    data = w * np.exp(1j * dw * t) * np.exp(-t / tw)
    est = waterfat.fit_waterfat(data, TINY)
    assert est.valid
    assert est.t2s_water == tw
    assert est.fat_fraction == pytest.approx(0.0, abs=1e-6)
    assert est.d_omega0 == pytest.approx(dw, abs=1e-8)
    assert est.w == pytest.approx(w, rel=1e-8)


def _oracle_cases():
    """Seeded FID sets for the oracle: random data, and noisy two-species
    mixtures near opposed phase at the first time (the fat term nearly
    cancels the water term there), each at three scales."""
    rng = np.random.default_rng(11)
    t = np.asarray(TIMES)
    base = []
    for _ in range(10):
        base.append(rng.standard_normal(5) + 1j * rng.standard_normal(5))
    for _ in range(10):
        tw, tf = rng.uniform(0.010, 0.100, size=2)
        dw = rng.uniform(-2.0 * np.pi * 20.0, 2.0 * np.pi * 20.0)
        w = np.exp(1j * rng.uniform(-np.pi, np.pi))
        # Fat opposes water at t[0] to within 10% in magnitude and 0.1 rad.
        f = (-w * rng.uniform(0.9, 1.1) * np.exp(-1j * OMEGA_CS * t[0])
             * np.exp(1j * rng.uniform(-0.1, 0.1)))
        clean = waterfat.wf_design(t, tw, tf, dw) @ np.array([w, f])
        noise = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        base.append(clean + 0.01 * noise)
    return [scale * data for scale in (1.0, 1e-6, 1e6) for data in base]


def test_fast_path_matches_reference():
    cases = _oracle_cases()
    assert len(cases) >= 50
    for data in cases:
        fast = waterfat.fit_waterfat(data, TINY)
        slow = waterfat.fit_waterfat_grid_minimize(data, TINY)
        assert fast.valid and slow.valid
        assert ((fast.t2s_water, fast.t2s_fat, fast.d_omega0)
                == (slow.t2s_water, slow.t2s_fat, slow.d_omega0))
        npt.assert_allclose([fast.w, fast.f], [slow.w, slow.f], rtol=1e-9)


def _rows(est, i):
    return tuple(field[i].item() for field in est)


def test_array_call_equals_one_row_calls_and_the_oracle():
    cases = _oracle_cases()
    est = waterfat.fit_waterfat_pixels(np.array(cases), TINY)
    assert all(field.shape == (len(cases),) for field in est)
    for i, data in enumerate(cases):
        assert _rows(est, i) == tuple(waterfat.fit_waterfat(data, TINY))
        slow = waterfat.fit_waterfat_grid_minimize(data, TINY)
        assert ((est.t2s_water[i], est.t2s_fat[i], est.d_omega0[i])
                == (slow.t2s_water, slow.t2s_fat, slow.d_omega0))


@pytest.mark.parametrize("cfg, rows", [
    (TINY, 60), (waterfat.WfConfig(times=TIMES), 6)])
def test_bits_do_not_depend_on_the_block_size(monkeypatch, cfg, rows):
    # A default block holds every row of the tiny grid and one row of the
    # default grid; 7-row blocks leave a short last block.
    data = np.array(_oracle_cases()[:rows])
    ref = waterfat.fit_waterfat_pixels(data, cfg)
    per_px = cfg.t2s_points ** 2 * cfg.offset_axis().size
    assert (waterfat._BLOCK_ELEMENTS // per_px >= rows) == (cfg is TINY)
    for size in (1, 7 * per_px, 2 ** 30):
        monkeypatch.setattr(waterfat, "_BLOCK_ELEMENTS", size)
        got = waterfat.fit_waterfat_pixels(data, cfg)
        for name, a, b in zip(waterfat.WfEstimate._fields, got, ref):
            assert a.tobytes() == b.tobytes(), (size, name)


def test_zero_rows_in_an_array_are_invalid_and_isolated():
    data = np.array(_oracle_cases())
    ref = waterfat.fit_waterfat_pixels(data, TINY)
    zero = np.zeros(len(data), dtype=bool)
    zero[[0, 5, 59]] = True
    data[zero] = 0.0
    est = waterfat.fit_waterfat_pixels(data, TINY)
    assert not est.valid[zero].any() and est.valid[~zero].all()
    for a, b in zip(est, ref):
        assert not a[zero].any()
        assert a[~zero].tobytes() == b[~zero].tobytes()


def test_candidate_scores_are_the_squared_residuals():
    # The Gram form scores each candidate by its least-squares residual:
    # checked against one solve per candidate, in search order.  Without a
    # chemical shift the pairs t2s_water = t2s_fat have two equal columns.
    t = np.asarray(TIMES)
    for cfg, data in itertools.product(
            (TINY, dataclasses.replace(TINY, omega_cs=0.0, t2s_points=8)),
            _oracle_cases()[::6]):
        axis, offsets = cfg.t2s_axis(), cfg.offset_axis()
        init = waterfat.init_offres(data[0], data[2], t[2] - t[0])
        x = data * np.exp(-1j * init * t)
        proj, lag_of, table = waterfat._pair_decomposition(cfg)
        scores = waterfat._lag_gram(
            x[np.newaxis], np.vdot(data, data).real[np.newaxis], proj,
            lag_of) @ table
        resid = [fitcore.lsq_solve(waterfat.wf_design(
                     t, tw, tf, init + dw, cfg.omega_cs), data).residual_norm
                 for tw in axis for tf in axis for dw in offsets]
        norm = np.vdot(data, data).real
        npt.assert_allclose(scores.ravel(), np.square(resid),
                            rtol=0, atol=1e-12 * norm)


@pytest.mark.parametrize("cfg", [
    waterfat.WfConfig(times=TIMES), TINY,
    dataclasses.replace(TINY, omega_cs=0.0, t2s_points=8)],
    ids=["default", "tiny", "no-shift"])
def test_projectors_equal_the_construction_from_every_pair(cfg):
    # The projectors come from the axis' water and fat columns, each pair
    # taking one of each: bit-equal to Gram-Schmidt over every pair's own
    # design (1,600 at the default grid).
    axis = cfg.t2s_axis()
    q1, q2, *_ = waterfat._gram_schmidt(waterfat.wf_design(
        np.asarray(cfg.times), np.repeat(axis, axis.size)[:, np.newaxis],
        np.tile(axis, axis.size)[:, np.newaxis], 0.0, cfg.omega_cs))
    want = np.empty((axis.size ** 2, 15), dtype=complex)
    for j, (m, n) in enumerate(zip(*np.triu_indices(5))):
        want[:, j] = q1[:, m] * q1[:, n].conj() + q2[:, m] * q2[:, n].conj()
    got = waterfat._pair_decomposition(cfg)[0]
    assert got.shape == (axis.size ** 2, 15)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("omega_cs, tw, tf", [
    (OMEGA_CS, 0.02, 0.05), (0.0, 0.02, 0.05), (0.0, 0.03, 0.03)],
    ids=["shifted", "unshifted", "rank-one"])
def test_winner_solve_is_the_minimum_norm_least_squares(omega_cs, tw, tf):
    # Rank one (equal columns) takes the minimum-norm amplitudes, as the
    # SVD solve does.
    rng = np.random.default_rng(5)
    a = waterfat.wf_design(TIMES, tw, tf, 40.0, omega_cs)
    for data in rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5)):
        w, f, resid = waterfat._solve_winners(a[None], data[None])
        ref = fitcore.lsq_solve(a, data)
        npt.assert_allclose([w[0], f[0]], ref.x, rtol=1e-9)
        assert resid[0] == pytest.approx(ref.residual_norm, rel=1e-9)
        assert ref.rank_deficient == (tw == tf)


_THREAD_SCRIPT = """
import hashlib
import numpy as np
from qmapkit import waterfat
from qmapkit.constants import OMEGA_CS
cfg = waterfat.WfConfig(times=(0.002, 0.004, 0.006, 0.008, 0.010))
rng = np.random.default_rng(3)
t = np.asarray(cfg.times)
digest = hashlib.sha256()
rows = []
for _ in range(64):
    tw, tf = rng.uniform(0.005, 0.120, size=2)
    dw = rng.uniform(-300.0, 300.0)
    amps = rng.uniform(0.1, 1.0, size=2) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, size=2))
    data = waterfat.wf_design(t, tw, tf, dw, OMEGA_CS) @ amps
    data = data + 0.02 * (rng.standard_normal(5) + 1j * rng.standard_normal(5))
    est = waterfat.fit_waterfat(data, cfg)
    digest.update(np.array([est.w, est.f]).tobytes())
    digest.update(np.array(est[2:7]).tobytes())
    rows.append(data)
for field in waterfat.fit_waterfat_pixels(np.array(rows), cfg):
    digest.update(field.tobytes())
print(digest.hexdigest())
"""


def test_fit_is_byte_identical_across_blas_threads():
    # The default 40-point search makes a product large enough for a
    # multi-threaded BLAS to split it.
    src = str(Path(waterfat.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = os.environ.copy()
        env["OMP_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", _THREAD_SCRIPT],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64
    assert digests[0] == digests[1]


def test_zero_data_and_shape():
    est = waterfat.fit_waterfat(np.zeros(5, dtype=complex), TINY)
    assert not est.valid
    est = waterfat.fit_waterfat_grid_minimize(np.zeros(5, dtype=complex), TINY)
    assert not est.valid
    with pytest.raises(ValueError):
        waterfat.fit_waterfat(np.zeros(4, dtype=complex), TINY)


def test_delta_b0():
    assert waterfat.delta_b0(GAMMA) == pytest.approx(1.0)
    npt.assert_allclose(waterfat.delta_b0(np.array([0.0, 2.0 * GAMMA])),
                        [0.0, 2.0])


def test_echo_time_scale():
    assert waterfat.echo_time_scale(0.0, 0.0, 0.04, 0.02, 0.002) == 1.0
    # Water only: plain exponential decay, phases ignored.
    assert waterfat.echo_time_scale(
        2.0 * np.exp(1.2j), 0.0, 0.04, 0.02, 0.002) == pytest.approx(
            np.exp(-0.002 / 0.04))
    w, f, te = 0.6, 0.4, 0.0023
    mix = (w * np.exp(-te / 0.045)
           + f * np.exp(1j * OMEGA_CS * te - te / 0.025))
    assert waterfat.echo_time_scale(w, f, 0.045, 0.025, te) == pytest.approx(
        abs(mix) / (w + f))
