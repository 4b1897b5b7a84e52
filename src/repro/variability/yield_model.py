"""Timing-margin and yield budgeting under sub-V_th variability.

The paper's introduction: variability "forces the adoption of
pessimistic design practices and large timing margins".  This module
turns the Monte-Carlo delay distributions into the designer-facing
number: the clock-margin multiplier needed for a target timing yield
across many critical paths.

In subthreshold, per-gate delay is exponential in a Gaussian V_th, so
path delay is (approximately) log-normal; for an N-gate path the
log-domain variance averages down as 1/N, and the chip-level margin is
set by the *maximum* of many such paths — both effects are modelled
here with standard normal statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import ndtri

from ..constants import thermal_voltage
from ..circuit.inverter import Inverter
from ..errors import ParameterError
from .rdf import rdf_sigma_vth


@dataclass(frozen=True)
class TimingMarginReport:
    """Margin budget for one technology/supply point.

    Attributes
    ----------
    sigma_ln_gate:
        Log-domain delay sigma of a single gate.
    sigma_ln_path:
        Log-domain sigma of an ``n_gates`` path (averages as 1/sqrt(N)).
    margin_multiplier:
        Clock period multiplier (vs the nominal path delay) for the
        target yield over ``n_paths`` independent critical paths.
    """

    sigma_ln_gate: float
    sigma_ln_path: float
    margin_multiplier: float
    n_gates: int
    n_paths: int
    yield_target: float


def gate_log_delay_sigma(inverter: Inverter) -> float:
    """Log-domain delay sigma of one gate under RDF.

    Subthreshold delay ~ exp(-V_th/(m v_T)) per device; with the NFET
    and PFET each driving one edge, the average-edge log-sigma is the
    RMS of the two devices' ``sigma_Vth/(m v_T)`` halved.
    """
    vt = thermal_voltage(inverter.nfet.temperature_k)
    s_n = rdf_sigma_vth(inverter.nfet) / (inverter.nfet.slope_factor * vt)
    s_p = rdf_sigma_vth(inverter.pfet) / (inverter.pfet.slope_factor * vt)
    return 0.5 * math.sqrt(s_n ** 2 + s_p ** 2)


def path_log_delay_sigma(inverter: Inverter, n_gates: int) -> float:
    """Log-domain sigma of an ``n_gates`` path (independent gates)."""
    if n_gates < 1:
        raise ParameterError("path needs at least one gate")
    return gate_log_delay_sigma(inverter) / math.sqrt(n_gates)


def timing_margin(inverter: Inverter, n_gates: int = 30,
                  n_paths: int = 1000,
                  yield_target: float = 0.999) -> TimingMarginReport:
    """Clock-margin multiplier for a target chip timing yield.

    The slowest of ``n_paths`` i.i.d. log-normal paths must meet
    timing with probability ``yield_target``; per-path quantile
    ``q = yield_target^(1/n_paths)`` gives the margin
    ``exp(z_q * sigma_ln_path)``.

    >>> # more paths or tighter yield -> more margin (see tests)
    """
    if not 0.5 < yield_target < 1.0:
        raise ParameterError("yield target must be in (0.5, 1)")
    if n_paths < 1:
        raise ParameterError("need at least one path")
    sigma_gate = gate_log_delay_sigma(inverter)
    sigma_path = path_log_delay_sigma(inverter, n_gates)
    per_path_quantile = yield_target ** (1.0 / n_paths)
    z = float(ndtri(per_path_quantile))
    multiplier = math.exp(z * sigma_path)
    return TimingMarginReport(
        sigma_ln_gate=sigma_gate,
        sigma_ln_path=sigma_path,
        margin_multiplier=multiplier,
        n_gates=n_gates,
        n_paths=n_paths,
        yield_target=yield_target,
    )


def margin_vs_supply(inverter: Inverter, vdd_values: list[float],
                     n_gates: int = 30, n_paths: int = 1000,
                     yield_target: float = 0.999) -> list[float]:
    """Margin multipliers across supplies (V_th sigma is bias-free, so
    in this first-order model the multiplier is supply-independent —
    the *absolute* margin still explodes with the exponential nominal
    delay, which is the paper's point)."""
    return [
        timing_margin(inverter.with_vdd(v), n_gates, n_paths,
                      yield_target).margin_multiplier
        for v in vdd_values
    ]
