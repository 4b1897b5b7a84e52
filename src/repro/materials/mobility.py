"""Carrier mobility models.

Three effects matter for the devices in this study:

* ionised-impurity scattering — low-field mobility falls with channel
  doping (Masetti fit),
* vertical-field degradation — the effective mobility in an inversion
  layer falls with the transverse effective field (universal mobility),
* velocity saturation — lateral-field degradation that limits the
  on-current of short devices.

The models are deliberately the simple textbook forms: the paper's
conclusions depend on trends in electrostatics, and the mobility model
only needs to scale currents plausibly between nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..constants import VSAT_ELECTRON, VSAT_HOLE
from ..errors import ParameterError

# Masetti fit parameters (Masetti, Severi, Solmi 1983), electrons/holes
# in silicon; mu in cm^2/Vs, N in cm^-3.
_MASETTI = {
    "electron": dict(mu_min1=52.2, mu_min2=52.2, mu1=43.4, mu_max=1417.0,
                     cr=9.68e16, cs=3.43e20, alpha=0.680, beta=2.0),
    "hole": dict(mu_min1=44.9, mu_min2=0.0, mu1=29.0, mu_max=470.5,
                 cr=2.23e17, cs=6.10e20, alpha=0.719, beta=2.0),
}


def masetti_mobility(doping_cm3: float, carrier: str = "electron") -> float:
    """Low-field bulk mobility [cm^2/Vs] vs total doping (Masetti model).

    >>> masetti_mobility(1e15) > 1300
    True
    >>> masetti_mobility(1e19) < 150
    True
    """
    if doping_cm3 <= 0.0:
        raise ParameterError(f"doping must be positive, got {doping_cm3}")
    try:
        p = _MASETTI[carrier]
    except KeyError:
        raise ParameterError(f"unknown carrier {carrier!r}") from None
    n = doping_cm3
    mu = p["mu_min1"]
    mu += (p["mu_max"] - p["mu_min2"]) / (1.0 + (n / p["cr"]) ** p["alpha"])
    mu -= p["mu1"] / (1.0 + (p["cs"] / n) ** p["beta"])
    return max(mu, 10.0)


#: Universal-mobility constants per carrier: ``(E_0 [V/cm], nu)`` of
#: the degradation factor ``1 / (1 + (E_eff/E_0)^nu)``, read here and
#: by :meth:`repro.device.iv.IVParams.from_state`.
UNIVERSAL_MOBILITY = {"electron": (6.7e5, 1.6), "hole": (7.0e5, 1.0)}


def vertical_field_factor(eff_field_v_per_cm: float, carrier: str = "electron") -> float:
    """Universal-mobility degradation factor (<= 1) vs effective field.

    ``1 / (1 + (E_eff/E_0)^nu)`` with the carrier's
    :data:`UNIVERSAL_MOBILITY` constants (E_0 ~ 0.67 MV/cm, nu ~ 1.6
    for electrons).
    """
    if eff_field_v_per_cm < 0.0:
        raise ParameterError("effective field must be >= 0")
    try:
        e0_v_per_cm, nu = UNIVERSAL_MOBILITY[carrier]
    except KeyError:
        raise ParameterError(f"unknown carrier {carrier!r}") from None
    return 1.0 / (1.0 + (eff_field_v_per_cm / e0_v_per_cm) ** nu)


def saturation_velocity(carrier: str = "electron") -> float:
    """Carrier saturation velocity [cm/s]."""
    if carrier == "electron":
        return VSAT_ELECTRON
    if carrier == "hole":
        return VSAT_HOLE
    raise ParameterError(f"unknown carrier {carrier!r}")


@dataclass(frozen=True)
class MobilityModel:
    """Composite mobility model for one carrier type.

    Parameters
    ----------
    carrier:
        ``"electron"`` or ``"hole"``.
    temperature_k:
        Lattice temperature; bulk mobility scales as ``(T/300)^-2.2``
        (phonon-dominated regime).
    """

    carrier: str = "electron"
    temperature_k: float = 300.0

    def __post_init__(self) -> None:
        if self.carrier not in ("electron", "hole"):
            raise ParameterError(f"unknown carrier {self.carrier!r}")
        if self.temperature_k <= 0.0:
            raise ParameterError("temperature must be positive")

    def low_field(self, doping_cm3: float) -> float:
        """Low-field mobility [cm^2/Vs] at the model temperature."""
        mu300 = masetti_mobility(doping_cm3, self.carrier)
        return mu300 * (self.temperature_k / 300.0) ** -2.2

    def effective(self, doping_cm3: float, eff_field_v_per_cm: float) -> float:
        """Effective inversion-layer mobility [cm^2/Vs]."""
        return self.low_field(doping_cm3) * vertical_field_factor(
            eff_field_v_per_cm, self.carrier
        )

    def vsat(self) -> float:
        """Saturation velocity [cm/s]."""
        return saturation_velocity(self.carrier)


def effective_mobility(
    doping_cm3: float,
    eff_field_v_per_cm: float = 0.0,
    carrier: str = "electron",
    temperature_k: float = 300.0,
) -> float:
    """Convenience wrapper over :class:`MobilityModel`.

    >>> effective_mobility(2e18) < effective_mobility(1e16)
    True
    """
    model = MobilityModel(carrier=carrier, temperature_k=temperature_k)
    return model.effective(doping_cm3, eff_field_v_per_cm)
