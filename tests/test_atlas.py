"""The noiseless accuracy atlas: the loop's worst error at each transmit
scale.

A 1 x 240 strip holds one tissue per pixel: k in {0.6, 0.85, 1, 1.2, 1.5}
x fat fraction in {0, 0.2, 0.5, 0.8} x off-resonance in {-50, 0, 37} Hz x
T1 in {0.3, 1.4} s x T2 in {40, 120} ms, with water and fat T2* of 30 and
20 ms and M0 1.  It is simulated without noise and estimated with the
default options, every pixel masked.  Per k, the table holds the worst
absolute error of B1, ff and the off-resonance (in Hz), and the worst
relative error of T2, T1, M0 and T1/M0, over every pixel of that k, valid
or not, with the maps that have invalid pixels and how many.  README's
"Where the loop is exact" holds the same table.  A change that lowers an
entry lowers it here.
"""

import itertools

import numpy as np
import pytest

from qmapkit import maskgen, phantom, pipeline, seqsim

KS = (0.6, 0.85, 1.0, 1.2, 1.5)
# (map, relative) of each worst error, in the table's order; d_omega0's is
# taken in Hz.
ERRORS = (("b1", False), ("fat_fraction", False), ("d_omega0", False),
          ("t2", True), ("t1", True), ("m0", True), ("t1_over_m0", True))
T1_MAPS = ("t1", "m0", "t1_over_m0")
# pulses -> k -> (worst errors in ERRORS order, invalid pixels per map).
# The 24 invalid T1 pixels at k 1.2 and 1.5 are pinned at the 5 s bound.
ATLAS = {
    "sinc": {
        0.6: ((0.0005278, 0.002573, 0.2688, 0.0, 0.8563, 0.2125, 0.8190),
              {}),
        0.85: ((0.001149, 0.002573, 0.2688, 0.005861, 0.6843, 0.3107,
                0.5455), {}),
        1.0: ((0.001415, 0.002573, 0.2688, 0.0001043, 0.004698, 0.009006,
               0.007062), {}),
        1.2: ((0.001248, 0.002573, 0.2688, 0.005461, 2.571, 1.072, 0.7366),
              dict.fromkeys(T1_MAPS, 24)),
        1.5: ((0.0009319, 0.002573, 0.2688, 0.0002647, 1.168, 0.7611,
               0.8516), dict.fromkeys(T1_MAPS, 24)),
    },
    "hard": {
        0.6: ((0.0, 0.002573, 0.2688, 0.0, 0.8648, 0.2255, 0.8268), {}),
        0.85: ((0.0, 0.002573, 0.2688, 0.0, 0.6992, 0.3305, 0.5542), {}),
        1.0: ((0.0, 0.002573, 0.2688, 0.0, 0.0, 0.007012, 0.007062), {}),
        1.2: ((0.0, 0.002573, 0.2688, 0.0, 2.571, 1.113, 0.7032),
              dict.fromkeys(T1_MAPS, 24)),
        # 2 k * 60 degrees is 180 here: the double-angle ratio is 0, at the
        # table's end.
        1.5: ((0.0, 0.002573, 0.2688, 0.0, 1.495, 0.7561, 0.8547),
              dict.fromkeys(("b1", "t2") + T1_MAPS, 48)),
    },
}
# Each worst error may differ from its entry by this plus 0.1% of it: the
# entries have four digits, and 0 stands for less than 5e-5.
ATOL = 5e-5


def _strip():
    k, ff, hz, t1, t2 = np.array(list(itertools.product(
        KS, (0.0, 0.2, 0.5, 0.8), (-50.0, 0.0, 37.0), (0.3, 1.4),
        (0.04, 0.12)))).T[:, None]
    return phantom.PhantomMap(
        water_amp=1.0 - ff, fat_amp=ff, t1=t1, t2=t2,
        t2s_water=np.full(k.shape, 0.03), t2s_fat=np.full(k.shape, 0.02),
        d_omega0=2.0 * np.pi * hz, b1_scale=k,
        label=np.ones(k.shape, dtype=np.int32))


@pytest.fixture(scope="module", params=list(ATLAS))
def atlas(request):
    pm = _strip()
    pulses = seqsim.build_pulses(
        seqsim.PulseParams(hard=request.param == "hard"))
    maps = pipeline.estimate_all(
        seqsim.simulate_scan(pm, pulses=pulses),
        maskgen.Mask(bits=np.ones(pm.shape, dtype=bool)))
    return request.param, pm, maps


@pytest.mark.parametrize("k", KS)
def test_the_noiseless_loop_errs_as_tabled(atlas, k):
    pulses, pm, maps = atlas
    truth = phantom.phantom_truth_arrays(pm)
    at = pm.b1_scale == k
    worst = []
    for name, relative in ERRORS:
        est, true = getattr(maps, name)[at], truth[name][at]
        err = np.abs(est / true - 1.0 if relative else est - true)
        worst.append(np.max(err) / (2.0 * np.pi if name == "d_omega0"
                                    else 1.0))
    want, invalid = ATLAS[pulses][k]
    assert np.all(np.abs(np.subtract(worst, want))
                  <= ATOL + 1e-3 * np.array(want)), worst
    assert {name: int(np.count_nonzero(~maps.valid[name][at]))
            for name in pipeline.MAP_NAMES
            if not np.all(maps.valid[name][at])} == invalid
