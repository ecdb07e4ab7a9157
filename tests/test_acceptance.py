"""End-to-end acceptance checks: one test per shipped tolerance claim.

Each test prints a one-line summary of the measured margins; the pass/fail
status of the claim is the test's own verdict.
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from qmapkit import (b1map, bloch, fitcore, phantom, pipeline, seqsim,
                     t1fit, t2fit, waterfat)


@pytest.fixture(scope="module")
def timing():
    return seqsim.default_timing()


@pytest.fixture(scope="module")
def pulses(timing):
    return seqsim.build_pulses(timing=timing)


@pytest.fixture(scope="module")
def profile_k1(pulses):
    return seqsim.pixel_profiles(pulses, 1.0)


def _water(t1=0.8, t2=0.08, **kw):
    base = dict(water_amp=1.0, fat_amp=0.0, t1=t1, t2=t2,
                t2s_water=0.045, t2s_fat=0.025)
    base.update(kw)
    return phantom.TissueParams(**base)


def test_1_bottle_fat_fraction_ratios():
    # Six-bottle 64x64 noiseless scan, full pipeline; the fourth/third and
    # fifth/fourth fat-signal ratios must land within 0.05 of 0.6 and 0.4.
    t0 = time.perf_counter()
    pm = phantom.make_bottle_phantom(64, 64)
    images = seqsim.simulate_scan(pm)
    maps = pipeline.estimate_all(images)
    elapsed = time.perf_counter() - t0

    sel = maps.mask & maps.valid["fat_fraction"]
    ff = {}
    for label in (3, 4, 5):
        pick = (pm.label == label) & sel
        assert pick.sum() > 50
        ff[label] = float(maps.fat_fraction[pick].mean())
    r43 = ff[4] / ff[3]
    r54 = ff[5] / ff[4]
    print(f"criterion 1: ratios {r43:.4f} (target 0.6) / {r54:.4f} "
          f"(target 0.4), {elapsed:.0f}s")
    assert abs(r43 - 0.6) < 0.05
    assert abs(r54 - 0.4) < 0.05
    assert elapsed < 120.0


def test_2_transmit_scale_round_trip(timing, pulses):
    table = pipeline._ratio_table(pulses, pipeline.EstimateOptions())
    worst_clean, worst_noisy = 0.0, 0.0
    for k in (0.8, 1.0, 1.2):
        pm = phantom.make_disc_phantom(32, 32, _water(b1_scale=k),
                                       radius_frac=0.25)
        clean = seqsim.simulate_scan(pm, timing, pulses=pulses)
        inside = pm.label > 0
        khat, ok = b1map.estimate_b1(np.abs(clean.data[0, 7]),
                                     np.abs(clean.data[1, 7]), table)
        assert np.all(ok[inside])
        max_rel = float(np.max(np.abs(khat[inside] / k - 1.0)))
        worst_clean = max(worst_clean, max_rel)
        assert max_rel <= 0.005

        # Complex noise at SNR 50 on the in-phantom mean of |I8|.
        sigma = float(np.abs(clean.data[0, 7])[inside].mean()) / 50.0
        rng = np.random.default_rng(70 + round(10 * k))
        noise = rng.standard_normal((2,) + inside.shape + (2,))
        mags = [np.abs(clean.data[s, 7] + sigma * (noise[s, ..., 0]
                                                   + 1j * noise[s, ..., 1]))
                for s in (0, 1)]
        khat_n, ok_n = b1map.estimate_b1(mags[0], mags[1], table)
        med = float(np.median(khat_n[inside & ok_n]))
        rel = abs(med / k - 1.0)
        worst_noisy = max(worst_noisy, rel)
        assert rel <= 0.02
    print(f"criterion 2: worst rel err {worst_clean:.2e} noiseless "
          f"(limit 5e-3), {worst_noisy:.2e} median at SNR 50 (limit 2e-2)")


def test_3_t2_round_trip_and_long_t2_bias():
    t2_by_label = (0.040, 0.080, 0.150, 0.600, 0.080, 0.080)
    bottles = tuple(
        phantom.TissueParams(water_amp=1.0, fat_amp=0.0, t1=0.8, t2=t2,
                             t2s_water=min(0.045, 0.9 * t2), t2s_fat=0.025)
        for t2 in t2_by_label)
    pm = phantom.make_bottle_phantom(64, 64, bottles)
    maps = pipeline.estimate_all(seqsim.simulate_scan(pm))
    sel = maps.mask & maps.valid["t2"]

    rels = []
    for label in (1, 2, 3):
        truth = t2_by_label[label - 1]
        med = float(np.median(maps.t2[(pm.label == label) & sel]))
        rels.append(med / truth - 1.0)
        assert abs(rels[-1]) <= 0.01

    # The 600 ms bottle must come out low (or flagged), never >1% high.
    pick4 = (pm.label == 4) & maps.mask
    med4 = float(np.median(maps.t2[pick4 & maps.valid["t2"]]))
    assert med4 <= 0.600 * 1.01
    assert med4 < 0.600 or not np.all(maps.valid["t2"][pick4])
    print(f"criterion 3: rel errs {['%+.1e' % r for r in rels]} "
          f"(limit 1e-2); 600ms bottle -> {med4 * 1000:.3f}ms (biased low)")


def test_4_waterfat_recovery_and_oracle(timing, profile_k1):
    cfg = waterfat.WfConfig(times=timing.fid_times)
    cell = (cfg.t2s_max / cfg.t2s_min) ** (1.0 / (cfg.t2s_points - 1))
    worst_dw, worst_ff = 0.0, 0.0
    for hz in (-40.0, 0.0, 40.0):
        p = phantom.TissueParams(
            water_amp=0.6, fat_amp=0.4, t1=0.8, t2=0.08, t2s_water=0.045,
            t2s_fat=0.025, d_omega0=2.0 * np.pi * hz)
        out = seqsim.simulate_pixel(p, timing, profile_k1)
        wf = waterfat.fit_waterfat(out[0, 0:5], cfg)
        worst_dw = max(worst_dw, abs(wf.d_omega0 - p.d_omega0))
        worst_ff = max(worst_ff, abs(wf.fat_fraction - 0.4))
        assert abs(wf.d_omega0 - p.d_omega0) <= cfg.d_omega_step + 1e-9
        assert abs(wf.fat_fraction - 0.4) <= 0.01
        assert abs(np.log(wf.t2s_water / 0.045)) <= np.log(cell) + 1e-9
        assert abs(np.log(wf.t2s_fat / 0.025)) <= np.log(cell) + 1e-9

    # Oracle equivalence: the production search and a brute-force scan of
    # the same candidate grid pick identical winners on noisy pixels.
    p = phantom.TissueParams(water_amp=0.6, fat_amp=0.4, t1=0.8, t2=0.08,
                             t2s_water=0.045, t2s_fat=0.025,
                             d_omega0=2.0 * np.pi * 15.0)
    pm = phantom.make_disc_phantom(32, 32, p, radius_frac=0.3)
    clean = seqsim.simulate_scan(pm)
    sigma = float(np.abs(clean.data[0, 7])[pm.label > 0].mean()) / 50.0
    noisy = seqsim.simulate_scan(pm, noise_sigma=sigma, seed=3)
    rows, cols = np.nonzero(pm.label > 0)
    pick = np.random.default_rng(123).choice(rows.size, size=20,
                                             replace=False)
    coarse = waterfat.WfConfig(times=timing.fid_times, t2s_points=12,
                               omega_bound=2.0 * np.pi * 20.0)
    agree = 0
    for j in pick:
        r, c = int(rows[j]), int(cols[j])
        fid = 0.5 * (noisy.data[0, 0:5, r, c] + noisy.data[1, 0:5, r, c])
        fast = waterfat.fit_waterfat(fid, coarse)
        slow = waterfat.fit_waterfat_grid_minimize(fid, coarse)
        agree += (fast.t2s_water == slow.t2s_water
                  and fast.t2s_fat == slow.t2s_fat
                  and abs(fast.d_omega0 - slow.d_omega0) < 1e-9)
    print(f"criterion 4: worst dw err {worst_dw:.3f} rad/s (step "
          f"{cfg.d_omega_step:.2f}), worst ff err {worst_ff:.4f}; "
          f"oracle agreement {agree}/20")
    assert agree == 20


def test_5_t1_m0_round_trip_and_short_tsat(timing, pulses):
    # Noiseless recovery at the standard 1.2 s saturation delay.
    worst = 0.0
    for t1v in (0.3, 0.8, 1.4):
        pm = phantom.make_disc_phantom(32, 32, _water(t1=t1v),
                                       radius_frac=0.25)
        maps = pipeline.estimate_all(
            seqsim.simulate_scan(pm, timing, pulses=pulses))
        sel = maps.mask & maps.valid["t1_over_m0"]
        assert sel.sum() > 100
        errs = (np.max(np.abs(maps.t1[sel] / t1v - 1.0)),
                np.max(np.abs(maps.m0[sel] - 1.0)),
                np.max(np.abs(maps.t1_over_m0[sel] / t1v - 1.0)))
        worst = max(worst, *errs)
        assert all(e <= 0.02 for e in errs)

    # Short saturation delay: individual T1/M0 blow up under noise while
    # their ratio stays put.  SNR 100 on the in-phantom mean of |I8|.
    pm = phantom.make_disc_phantom(32, 32, _water(t1=1.4), radius_frac=0.25)
    med = {}
    for tsat in (1.2, 0.2):
        tm = seqsim.default_timing(t_sat=tsat)
        clean = seqsim.simulate_scan(pm, tm)
        sigma = float(np.abs(clean.data[0, 7])[pm.label > 0].mean()) / 100.0
        noisy = seqsim.simulate_scan(pm, tm, noise_sigma=sigma, seed=11)
        maps = pipeline.estimate_all(noisy)
        sel = maps.mask & maps.valid["t1_over_m0"]
        med[tsat] = (abs(float(np.median(maps.t1[sel])) / 1.4 - 1.0),
                     abs(float(np.median(maps.m0[sel])) - 1.0),
                     abs(float(np.median(maps.t1_over_m0[sel])) / 1.4 - 1.0))
    print(f"criterion 5: noiseless worst {worst:.2e} (limit 2e-2); "
          f"SNR-100 medians t_sat=1.2 {['%.4f' % e for e in med[1.2]]}, "
          f"t_sat=0.2 {['%.4f' % e for e in med[0.2]]}")
    assert all(e <= 0.02 for e in med[1.2])
    t1_err, m0_err, ratio_err = med[0.2]
    assert t1_err > 0.05 and m0_err > 0.05  # individually degraded
    assert ratio_err <= 0.03                # ratio still tight


def test_6_numerical_invariants():
    # Rotation orthogonality across a realistic profile.
    pulse = bloch.hamming_sinc_pulse(np.pi / 2, 1e-3, 4e-3)
    z = bloch.default_z_grid(4e-3)
    rot = bloch.slice_profile(pulse, 1.13, z).rotations
    gram = np.einsum("zij,zkj->zik", rot, rot)
    ortho = float(np.max(np.abs(gram - np.eye(3))))
    assert ortho < 1e-9

    # Full refocusing at a perfect inversion, exactly.
    for n in (1, 2, 3):
        assert t2fit.echo_attenuation(n, np.pi) == 1.0

    # Small-tip profile against direct Fourier synthesis.
    tiny = bloch.hamming_sinc_pulse(np.deg2rad(5.0), 1e-3, 4e-3,
                                    phase=-np.pi / 2)
    prof = bloch.rephased(bloch.slice_profile(tiny, 1.0, z), tiny)
    txr = bloch.transverse_response(prof)
    tm = (np.arange(tiny.samples.size) + 0.5) * tiny.dt
    phase = np.exp(1j * tiny.slice_gradient * z[:, None]
                   * (tiny.duration / 2.0 - tm[None, :]))
    pred = 1j * (phase * tiny.samples[None, :] * tiny.dt).sum(axis=1)
    rms = float(np.sqrt(np.mean(np.abs(txr - pred) ** 2))
                / np.max(np.abs(txr)))
    assert rms < 0.02

    # Riemann slice integration of a linear ramp.
    zr = np.linspace(-0.008, 0.008, 129)
    h = zr[1] - zr[0]
    lo, hi = zr[0] - h / 2.0, zr[-1] + h / 2.0
    ref = 1.5 * (hi ** 2 - lo ** 2) + 0.5 * (hi - lo)
    ramp = float(abs(bloch.integrate_slice(3.0 * zr + 0.5, zr) - ref)
                 / abs(ref))
    assert ramp < 1e-3

    # Normal-equation residual orthogonality of the linear solver.
    rng = np.random.default_rng(99)
    a = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
    b = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    x, _, _, _ = fitcore.lsq_solve(a, b)
    resid = float(np.linalg.norm(a.conj().T @ (b - a @ x))
                  / (np.linalg.norm(a) * np.linalg.norm(b)))
    assert resid < 1e-9
    print(f"criterion 6: ortho {ortho:.1e}, small-tip rms {rms:.4f}, "
          f"ramp {ramp:.1e}, lsq orth {resid:.1e}")


CFG_DETERMINISM = {
    "phantom": {
        "type": "disc", "width": 32, "height": 32, "radius_frac": 0.28,
        "disc": {"water_amp": 0.7, "fat_amp": 0.3, "t1": 0.8, "t2": 0.08,
                 "t2s_water": 0.045, "t2s_fat": 0.03, "d_omega0": 31.4159},
    },
    "noise": {"sigma": 5e-5, "seed": 5},
    "b1": {"k_min": 0.7, "k_max": 1.3, "step": 0.002},
    "wf": {"t2s_points": 16, "omega_bound": 125.664},
}


def _run_pipeline_process(workdir, cfg_path, threads, cpus=None):
    """Simulate then estimate in subprocesses with every thread variable
    set to ``threads`` and, when ``cpus`` is given, pinned to those CPUs."""
    env = os.environ.copy()
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = threads
    pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
    images, maps = workdir / "images", workdir / "maps"
    for cmd in (["simulate", "--config", cfg_path, "--out", str(images)],
                ["estimate", "--config", cfg_path, "--images", str(images),
                 "--out", str(maps)]):
        proc = subprocess.run([sys.executable, "-m", "qmapkit.cli", *cmd],
                              env=env, preexec_fn=pin, capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
    return images, maps


def _dir_bytes(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_7_deterministic_outputs(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(CFG_DETERMINISM))
    runs = [("1", None), ("4", None)]
    if hasattr(os, "sched_setaffinity"):
        # Pinned to one CPU: the outputs must not depend on the CPU count.
        runs.append(("4", {min(os.sched_getaffinity(0))}))
    outputs = []
    for i, (threads, cpus) in enumerate(runs):
        workdir = tmp_path / str(i)
        workdir.mkdir()
        outputs.append(_run_pipeline_process(workdir, str(cfg_path),
                                             threads, cpus))
    (img_a, maps_a), *others = outputs
    for img_b, maps_b in others:
        assert _dir_bytes(img_a) == _dir_bytes(img_b)
        assert _dir_bytes(maps_a) == _dir_bytes(maps_b)
    print(f"criterion 7: image and map payloads byte-identical across "
          f"{len(runs)} thread/CPU settings")
