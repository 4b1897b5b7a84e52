"""Variability extension: random dopant fluctuation and rare-event yield.

The paper's introduction notes that "timing variability grows
dramatically as V_dd reduces, forcing the adoption of pessimistic
design practices".  This extension quantifies that observation for
both scaling strategies: RDF-induced sigma(V_th) per device, and
rare-event cell failure rates (delay exceedance and SNM collapse)
from scrambled-Sobol' QMC and importance sampling.
"""

from .rdf import rdf_sigma_vth, avt_coefficient
from .sampler import (
    SobolNormalStream,
    PseudoNormalStream,
    qmc_vth_offsets,
)
from .importance import (
    FailurePoint,
    YieldEstimate,
    estimate_failure_probability,
    failure_probability,
    find_failure_shift,
    sigma_level,
)
from .tails import (
    TailCurve,
    cell_failure_rate,
    failure_indicator,
    failure_rate_curve,
)

__all__ = [
    "rdf_sigma_vth",
    "avt_coefficient",
    "SobolNormalStream",
    "PseudoNormalStream",
    "qmc_vth_offsets",
    "FailurePoint",
    "YieldEstimate",
    "estimate_failure_probability",
    "failure_probability",
    "find_failure_shift",
    "sigma_level",
    "TailCurve",
    "cell_failure_rate",
    "failure_indicator",
    "failure_rate_curve",
]
