"""Simulation and quantitative map estimation for a two-segment
saturation-recovery MRI protocol.

The toolkit has two halves that close a loop:

* a forward simulator (:mod:`qmapkit.seqsim`) that evolves digital-phantom
  magnetization through the full pulse schedule and emits the 2 x 11
  complex images one scan produces, and
* an estimation pipeline (:mod:`qmapkit.pipeline`) that recovers transmit
  scale, T2, water/fat fractions with off-resonance and T2*, and T1/M0
  maps from those images.

See the README for the command-line walkthrough.
"""

from .constants import GAMMA, OMEGA_CS
from .phantom import (
    DEFAULT_BOTTLES,
    PhantomMap,
    TissueParams,
    make_bottle_phantom,
    make_disc_phantom,
    phantom_from_config,
    phantom_truth_arrays,
)
from .seqsim import (
    ImageSet,
    PulseParams,
    SequencePulses,
    SequenceTiming,
    build_pulses,
    default_timing,
    simulate_pixel,
    simulate_scan,
)
from .maskgen import Mask, make_mask, mean_image
from .b1map import RatioTable, build_ratio_table, estimate_b1
from .t2fit import echo_attenuation, fit_t2
from .waterfat import WfConfig, fit_waterfat
from .t1fit import fit_t1_m0
from .pipeline import EstimateOptions, QuantMaps, estimate_all
from .formats import (
    compare_maps,
    export_map_pgm,
    read_imageset,
    read_maps,
    read_mask,
    write_imageset,
    write_maps,
    write_mask,
)

__version__ = "0.1.0"

__all__ = [
    "GAMMA",
    "OMEGA_CS",
    "DEFAULT_BOTTLES",
    "PhantomMap",
    "TissueParams",
    "make_bottle_phantom",
    "make_disc_phantom",
    "phantom_from_config",
    "phantom_truth_arrays",
    "ImageSet",
    "PulseParams",
    "SequencePulses",
    "SequenceTiming",
    "build_pulses",
    "default_timing",
    "simulate_pixel",
    "simulate_scan",
    "Mask",
    "make_mask",
    "mean_image",
    "RatioTable",
    "build_ratio_table",
    "estimate_b1",
    "echo_attenuation",
    "fit_t2",
    "WfConfig",
    "fit_waterfat",
    "fit_t1_m0",
    "EstimateOptions",
    "QuantMaps",
    "estimate_all",
    "compare_maps",
    "export_map_pgm",
    "read_imageset",
    "read_maps",
    "read_mask",
    "write_imageset",
    "write_maps",
    "write_mask",
    "__version__",
]
