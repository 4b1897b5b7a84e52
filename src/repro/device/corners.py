"""Process corners: global (die-to-die) variants of a device pair.

Complementing the *local* RDF statistics in :mod:`repro.variability`,
foundries sign off designs at global corners — correlated shifts of
oxide thickness and channel doping that move whole wafers fast (FF),
slow (SS) or typical (TT).  Sub-V_th designs are notoriously
corner-sensitive: delay is exponential in V_th, so the FF/SS delay
ratio spans an order of magnitude where a super-V_th design sees tens
of percent.

The corner model shifts T_ox by ``tox_sigma_pct`` and the channel
doping by ``doping_sigma_pct`` (3-sigma magnitudes typical of the
technology generation), in the correlated directions that make both
devices fast or slow together.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from ..constants import CM_PER_NM
from ..errors import ParameterError
from ..materials.oxide import GateStack
from .batch import BatchDeviceMetrics, ParameterStack
from .mosfet import MOSFET, Polarity

#: Default 3-sigma global variation magnitudes.
TOX_SIGMA_PCT: float = 4.0
DOPING_SIGMA_PCT: float = 5.0


class Corner(enum.Enum):
    """Standard global process corners."""

    TT = "tt"
    FF = "ff"
    SS = "ss"


#: Corner -> (T_ox shift sign, doping shift sign).  A fast device has
#: thinner oxide (more drive per volt of gate overdrive) and lighter
#: channel doping (lower V_th).
_SIGNS: dict[Corner, tuple[float, float]] = {
    Corner.TT: (0.0, 0.0),
    Corner.FF: (-1.0, -1.0),
    Corner.SS: (+1.0, +1.0),
}


@dataclass(frozen=True)
class CornerSpec:
    """Magnitudes of the global shifts (3-sigma, percent)."""

    tox_sigma_pct: float = TOX_SIGMA_PCT
    doping_sigma_pct: float = DOPING_SIGMA_PCT

    def __post_init__(self) -> None:
        if self.tox_sigma_pct < 0.0 or self.doping_sigma_pct < 0.0:
            raise ParameterError("corner sigmas must be >= 0")
        if self.tox_sigma_pct >= 50.0 or self.doping_sigma_pct >= 50.0:
            raise ParameterError("corner sigmas above 50% are unphysical")


def at_corner(device: MOSFET, corner: Corner,
              spec: CornerSpec | None = None) -> MOSFET:
    """Return the device shifted to a global corner.

    >>> from repro.device import nfet
    >>> dev = nfet(65, 2.1, 1.2e18, 1.5e18)
    >>> at_corner(dev, Corner.FF).vth(0.1) < dev.vth(0.1)
    True
    """
    spec = spec or CornerSpec()
    tox_sign, dope_sign = _SIGNS[corner]
    if tox_sign == 0 and dope_sign == 0:
        return device
    tox_factor = 1.0 + tox_sign * spec.tox_sigma_pct / 100.0
    dope_factor = 1.0 + dope_sign * spec.doping_sigma_pct / 100.0

    stack = GateStack(
        thickness_cm=device.stack.thickness_cm * tox_factor,
        rel_permittivity=device.stack.rel_permittivity,
        name=device.stack.name,
    )
    profile = device.profile.with_substrate(
        device.profile.n_sub_cm3 * dope_factor
    )
    if device.profile.halo is not None:
        profile = replace(
            profile,
            halo=device.profile.halo.scaled(1.0, peak_factor=dope_factor),
        )
    return MOSFET(
        polarity=device.polarity,
        geometry=device.geometry,
        profile=profile,
        stack=stack,
        temperature_k=device.temperature_k,
        vth_offset_v=device.vth_offset_v,
    )


def corner_grid(devices: Sequence[MOSFET], corners: Sequence[Corner],
                spec: CornerSpec | None = None) -> BatchDeviceMetrics:
    """All ``devices x corners`` variants as one stacked evaluation.

    Builds a :class:`~repro.device.batch.ParameterStack` over the full
    product grid — lanes ordered device-major, so lane ``i * len(corners)
    + j`` is ``devices[i]`` at ``corners[j]`` — and evaluates it in one
    batched metrics pass.  The stack inputs are reconstructed from each
    device's own geometry/stack/profile and shifted by the same
    ``tox_factor`` / ``dope_factor`` multipliers :func:`at_corner`
    applies, so grid metrics agree with the shifted scalar devices to
    the batch layer's equivalence budget.
    """
    spec = spec or CornerSpec()
    devices = tuple(devices)
    corners = tuple(corners)
    if not devices or not corners:
        raise ParameterError("corner grid needs devices and corners")
    for dev in devices:
        if dev.vth_offset_v:
            raise ParameterError(
                "corner grids cannot carry per-device V_th offsets"
            )
        if dev.temperature_k != devices[0].temperature_k:
            raise ParameterError("corner grid devices must share T")

    signs = np.array([_SIGNS[c] for c in corners], dtype=float)
    tox_factor = np.tile(1.0 + signs[:, 0] * spec.tox_sigma_pct / 100.0,
                         len(devices))
    dope_factor = np.tile(1.0 + signs[:, 1] * spec.doping_sigma_pct / 100.0,
                          len(devices))

    def per_device(values: Sequence[float]) -> np.ndarray:
        return np.repeat(np.asarray(values, dtype=float), len(corners))

    from . import geometry as geometry_mod
    stack = ParameterStack(
        l_poly_nm=per_device([d.geometry.l_poly_nm for d in devices]),
        t_ox_nm=per_device([d.stack.thickness_cm / CM_PER_NM
                            for d in devices]) * tox_factor,
        is_nfet=np.repeat([d.polarity is Polarity.NFET for d in devices],
                          len(corners)),
        width_um=per_device([d.geometry.width_um for d in devices]),
        reference_nm=per_device([
            d.geometry.overlap_cm / geometry_mod.OVERLAP_FRACTION / CM_PER_NM
            for d in devices
        ]),
        temperature_k=devices[0].temperature_k,
    )
    return stack.metrics(
        per_device([d.profile.n_sub_cm3 for d in devices]) * dope_factor,
        per_device([d.profile.n_p_halo_cm3 for d in devices]) * dope_factor,
    )


def corner_report(device: MOSFET, vdd: float,
                  spec: CornerSpec | None = None
                  ) -> dict[str, dict[str, float]]:
    """Drive/leakage/V_th at all three corners.

    Returns ``{corner: {"vth_mv", "ion_a_per_um", "ioff_a_per_um"}}``.
    """
    if vdd <= 0.0:
        raise ParameterError("vdd must be positive")
    report: dict[str, dict[str, float]] = {}
    for corner in Corner:
        shifted = at_corner(device, corner, spec)
        report[corner.value] = {
            "vth_mv": 1000.0 * shifted.vth(vdd),
            "ion_a_per_um": shifted.i_on_per_um(vdd),
            "ioff_a_per_um": shifted.i_off_per_um(vdd),
        }
    return report


def ff_ss_delay_spread(device: MOSFET, vdd: float,
                       spec: CornerSpec | None = None) -> float:
    """FF-to-SS drive-current ratio at ``vdd`` — the corner delay spread.

    In subthreshold this is exponential in the corner V_th shift; at
    nominal supply it is a far tamer linear-ish factor.  The contrast
    is the classic sub-V_th sign-off headache.

    Both corners are evaluated in one two-lane :func:`corner_grid` pass.
    """
    ion = corner_grid((device,), (Corner.FF, Corner.SS),
                      spec).i_on_per_um(vdd)
    return float(ion[0] / ion[1])
