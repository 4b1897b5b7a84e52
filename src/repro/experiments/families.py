"""Device families shared across experiments.

Building the sub-V_th family runs hundreds of doping optimisations;
experiments share one in-process instance per configuration
(``lru_cache``) so running the whole suite stays fast.

:func:`prepare_experiment` puts the process in the state every
recorded experiment starts from, so an experiment's perf counters do
not depend on which experiments ran before it in the same process.
"""

from __future__ import annotations

from functools import lru_cache

from ..cache import device_memo
from ..scaling.strategy import DeviceFamily
from ..scaling.subvth import build_sub_vth_family
from ..scaling.supervth import build_super_vth_family


@lru_cache(maxsize=4)
def super_vth_family(include_130nm: bool = False) -> DeviceFamily:
    """The (cached) Table 2 family."""
    return build_super_vth_family(include_130nm)


@lru_cache(maxsize=4)
def sub_vth_family(include_130nm: bool = False) -> DeviceFamily:
    """The (cached) Table 3 family."""
    return build_sub_vth_family(include_130nm)


def prepare_experiment() -> None:
    """Build the default families and empty the device memo.

    The default families are the only ones experiments use, so after
    this no experiment builds a family, and each one starts with an
    empty device memo.  Its counters are then the same whether it runs
    first in a fresh worker or after others in one process, which is
    what keeps ``results.json`` independent of ``repro report --jobs``.
    """
    super_vth_family()
    sub_vth_family()
    device_memo.clear()


#: Sub-threshold evaluation supply used by the figure experiments [V].
SUB_VTH_SUPPLY: float = 0.25
