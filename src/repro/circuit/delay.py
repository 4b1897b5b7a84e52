"""Gate delay: the paper's analytic Eq. 4/5 and the simulated FO1 delay.

``t_p = k_d C_L V_dd / I_on`` (Eq. 4) with the fitting parameter
``k_d``; the "simulated" delay of Figs. 5 and 11 is reproduced by the
transient engine in :mod:`repro.circuit.transient` with an FO1 load.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import perf
from ..errors import ParameterError
from .batch import _broadcast_inputs
from .inverter import Inverter
from .transient import propagation_delay

#: Default delay fitting parameter (ln 2 for a single-pole RC stage).
K_D_DEFAULT: float = 0.69


@dataclass(frozen=True)
class DelayResult:
    """FO1 delay of an inverter at one supply point.

    Attributes
    ----------
    vdd:
        Supply voltage [V].
    c_load_f:
        The FO1 load used [F].
    analytic_s:
        ``k_d C_L V_dd / I_on`` estimate [s].
    transient_s:
        50 %-crossing transient delay [s]; ``None`` when only the
        analytic value was requested.
    """

    vdd: float
    c_load_f: float
    analytic_s: float
    transient_s: float | None = None

    @property
    def best(self) -> float:
        """Transient delay when available, else the analytic estimate."""
        return self.analytic_s if self.transient_s is None else self.transient_s


def analytic_delay(inverter: Inverter, c_load_f: float | None = None,
                   k_d: float = K_D_DEFAULT) -> float:
    """Eq. 4 delay ``k_d C_L V_dd / I_on`` [s].

    ``c_load_f`` [f] defaults to the FO1 load.  ``I_on`` is the
    average of the NFET and PFET on-currents — the two transitions are
    driven by different devices and the paper's ``k_d`` absorbs the
    residual asymmetry.
    """
    if k_d <= 0.0:
        raise ParameterError("k_d must be positive")
    c_load = inverter.load_capacitance(fanout=1) if c_load_f is None else c_load_f
    if c_load <= 0.0:
        raise ParameterError("load capacitance must be positive")
    vdd = inverter.vdd
    i_on = 0.5 * (inverter.nfet.i_on(vdd) + inverter.pfet.i_on(vdd))
    if i_on <= 0.0:
        raise ParameterError("inverter has no on-current")
    return k_d * c_load * vdd / i_on


def analytic_delay_batch(inverter: Inverter, dvth_n=0.0, dvth_p=0.0,
                         c_load_f=None, k_d: float = K_D_DEFAULT, vdd=None):
    """Eq. 4 delay for whole arrays of V_th perturbation pairs [s].

    The batched equivalent of ``analytic_delay`` on a V_th-offset copy
    of the inverter per element: the offsets enter the on-currents
    through the ``vth_shift_v`` hook of :meth:`MOSFET.ids`, so the
    whole Monte Carlo population is two vectorised I-V evaluations.

    ``vdd`` [V] broadcasts with the offsets and defaults to the
    inverter's supply.  The load is the *unperturbed* inverter's FO1
    load at each element's supply unless ``c_load_f`` [f] (a scalar or
    an array broadcasting likewise) overrides it (matching
    ``delay_distribution``).  The supply enters Eq. 4 only through
    ``V_gs = V_ds = V_dd`` and the load, so each distinct supply is one
    scalar-supply I-V evaluation over its elements' offsets.  Scalar
    inputs return a float.
    """
    if k_d <= 0.0:
        raise ParameterError("k_d must be positive")
    dn, dp, supply = _broadcast_inputs(inverter, dvth_n, dvth_p, vdd)
    loads = (None if c_load_f is None else
             np.broadcast_to(np.asarray(c_load_f, dtype=float), supply.shape))
    delays = np.empty(supply.shape)
    for v in np.unique(supply):
        lanes = supply == v
        c_load = (inverter.with_vdd(float(v)).load_capacitance(fanout=1)
                  if loads is None else loads[lanes])
        if np.any(c_load <= 0.0):
            raise ParameterError("load capacitance must be positive")
        i_on = 0.5 * (inverter.nfet.ids(v, v, vth_shift_v=dn[lanes])
                      + inverter.pfet.ids(v, v, vth_shift_v=dp[lanes]))
        if np.any(i_on <= 0.0):
            raise ParameterError("inverter has no on-current")
        delays[lanes] = k_d * c_load * v / i_on
    perf.bump("circuit.delay_batch_points", supply.size)
    return delays if delays.ndim else float(delays)


def fo1_delay(inverter: Inverter, transient: bool = True,
              k_d: float = K_D_DEFAULT, rtol: float = 1e-6) -> DelayResult:
    """FO1 (fanout-of-one) inverter delay, the paper's Fig. 5/11 metric."""
    c_load = inverter.load_capacitance(fanout=1)
    result = DelayResult(
        vdd=inverter.vdd,
        c_load_f=c_load,
        analytic_s=analytic_delay(inverter, c_load, k_d),
    )
    if not transient:
        return result
    t_sim = propagation_delay(inverter, c_load, rtol=rtol)
    return DelayResult(vdd=result.vdd, c_load_f=c_load,
                       analytic_s=result.analytic_s, transient_s=t_sim)
