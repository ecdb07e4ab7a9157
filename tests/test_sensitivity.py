"""How far each map moves when the scan departs from its record.

Each case simulates the noiseless 32x32 default bottles with one protocol
value moved, then estimates with the nominal record, as a scanner's record
would read: the image set's timing and pulse parameters are reset to the
nominal ones, and the nominal ratio table and the nominal scan's mask serve
every case.  A case's move is each map's median error over the valid masked
pixels, minus the nominal scan's: absolute for B1 and ff, relative for T2,
T1 and M0.  A change that lowers a slope lowers its entry.
"""

import dataclasses

import numpy as np
import pytest

from qmapkit import b1map, maskgen, phantom, pipeline, seqsim

TIMING, PARAMS = seqsim.default_timing(), seqsim.PulseParams()
FLIPS = ("sat_flip", "probe_flip", "imaging_flip", "inversion_flip")
# map -> whether its error is relative
MAPS = {"b1": False, "t2": True, "fat_fraction": False, "t1": True,
        "m0": True}

# Recorded value moved -1% / +1% -> median moves (B1, T2, ff, T1, M0).
# "All four flips" is physically a transmit scale of 0.99 / 1.01: B1 reads
# it, but T1 does not model the saturation residual it leaves.
TABLE = {
    FLIPS: ((-0.0100, +0.0003, 0.0, -0.0564, -0.0211),
            (+0.0100, -0.0003, 0.0, +0.0632, +0.0276)),
    ("sat_flip",): ((0.0, 0.0, 0.0, -0.0565, -0.0213),
                    (0.0, 0.0, 0.0, +0.0631, +0.0275)),
    ("probe_flip",): ((0.0, 0.0, 0.0, +0.0460, +0.0247),
                      (0.0, 0.0, 0.0, -0.0422, -0.0191)),
    ("imaging_flip",): ((-0.0100, +0.0010, 0.0, -0.0425, -0.0192),
                        (+0.0100, +0.0005, 0.0, +0.0456, +0.0245)),
    ("inversion_flip",): ((0.0, -0.0007, 0.0, 0.0, 0.0),
                          (0.0, -0.0007, 0.0, 0.0, 0.0)),
    ("time_bandwidth",): ((-0.0022, -0.0030, 0.0, +0.0002, +0.0022),
                          (+0.0022, +0.0024, 0.0, +0.0013, -0.0021)),
}
# Each move may differ from its entry by this plus 5% of the entry.
ATOL = 2e-4


@pytest.fixture(scope="module")
def loop():
    pm = phantom.make_bottle_phantom(32, 32)
    truth = phantom.phantom_truth_arrays(pm)
    pulses = seqsim.build_pulses(PARAMS, TIMING)
    table = b1map.build_ratio_table(pulses)
    mask = maskgen.make_mask(maskgen.mean_image(
        seqsim.simulate_scan(pm, pulses=pulses)))

    def medians(timing=TIMING, params=PARAMS):
        images = dataclasses.replace(
            seqsim.simulate_scan(pm, pulses=seqsim.build_pulses(params,
                                                                timing)),
            timing=TIMING, pulse_params=PARAMS)
        maps = pipeline.estimate_all(images, mask, ratio_table=table)
        out = []
        for name, relative in MAPS.items():
            sel = mask.bits & maps.valid[name]
            est, true = getattr(maps, name)[sel], truth[name][sel]
            out.append(np.median(est / true - 1.0 if relative
                                 else est - true))
        return np.array(out)

    nominal = medians()
    return lambda **moved: medians(**moved) - nominal


@pytest.mark.parametrize("names", list(TABLE),
                         ids=["all flips" if n == FLIPS else n[0]
                              for n in TABLE])
@pytest.mark.parametrize("sign", [-1, +1], ids=["-1%", "+1%"])
def test_a_one_percent_protocol_error_moves_the_maps_as_tabled(loop, names,
                                                                sign):
    if names == ("time_bandwidth",):
        moved = loop(params=dataclasses.replace(
            PARAMS, time_bandwidth=PARAMS.time_bandwidth * (1 + 0.01 * sign)))
    else:
        moved = loop(timing=dataclasses.replace(TIMING, **{
            n: getattr(TIMING, n) * (1 + 0.01 * sign) for n in names}))
    want = np.array(TABLE[names][sign > 0])
    assert np.all(np.abs(moved - want) <= ATOL + 0.05 * np.abs(want)), moved


def test_all_echoes_late_together_are_absorbed(loop):
    # A uniform echo shift scales every echo's amplitude alike.
    moved = loop(timing=dataclasses.replace(TIMING, echo_offsets=tuple(
        e + 0.5e-3 for e in TIMING.echo_offsets)))
    assert np.all(np.abs(moved) <= 1e-4), moved


def test_a_longer_pulse_at_the_same_time_bandwidth_is_absorbed(loop):
    # The slice profile in z depends on the time-bandwidth product alone.
    moved = loop(params=dataclasses.replace(PARAMS,
                                            duration=PARAMS.duration * 1.1))
    assert np.all(np.abs(moved) <= 1e-4), moved
