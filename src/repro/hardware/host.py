"""The workstation: host CPUs plus attached accelerators.

The paper evaluates one dual-socket machine in several configurations:
CPU-only (one or two sockets), plus a Xeon Phi 7120, plus one half of a
K80, or plus both K80 GPUs.  :func:`paper_workstation` builds any of
them.
"""

from __future__ import annotations

import dataclasses
from typing import List, Tuple

from repro.errors import HardwareModelError
from repro.hardware.device import SimulatedDevice
from repro.hardware.specs import (
    DUAL_E5_2630_V3,
    E5_2630_V3,
    HALF_K80,
    XEON_PHI_7120,
    DeviceSpec,
)
from repro.precision import Precision, PrecisionLike

#: Accelerator configuration names accepted by :func:`paper_workstation`.
#: ``"k80-half+phi"`` is the heterogeneous combination the paper leaves
#: as future work (one K80 GPU and the Xeon Phi together).
ACCELERATOR_CHOICES = ("none", "phi", "k80-half", "k80-dual", "k80-half+phi")


@dataclasses.dataclass(frozen=True)
class Workstation:
    """A host CPU with zero or more accelerators, at one precision."""

    cpu: SimulatedDevice
    accelerators: Tuple[SimulatedDevice, ...]
    precision: Precision

    @property
    def has_accelerator(self) -> bool:
        """True when at least one accelerator is attached."""
        return bool(self.accelerators)

    @property
    def accelerator(self) -> SimulatedDevice:
        """The primary (first) accelerator."""
        if not self.accelerators:
            raise HardwareModelError("workstation has no accelerator")
        return self.accelerators[0]

    def describe(self) -> str:
        """Human-readable configuration summary."""
        parts = [self.cpu.name]
        parts.extend(device.name for device in self.accelerators)
        return " + ".join(parts)

    def with_cpu_calibration(self, calibration) -> "Workstation":
        """A copy whose host runs at a *fitted* kernel calibration.

        Measured assembly and solve throughputs of a real host
        re-anchor the simulated CPU (see
        :func:`repro.hardware.calibration.calibrate_from_measurement`),
        so the paper's schedules and tuners predict for the machine
        actually serving traffic instead of the paper's.
        """
        from repro.hardware.kernels import KernelModel

        model = KernelModel(device=self.cpu.spec,
                            precision=calibration.precision,
                            calibration=calibration)
        cpu = dataclasses.replace(self.cpu, precision=calibration.precision,
                                  model=model)
        return dataclasses.replace(self, cpu=cpu)


def cpu_spec(sockets: int) -> DeviceSpec:
    """The host CPU spec for one or two sockets."""
    if sockets == 1:
        return E5_2630_V3
    if sockets == 2:
        return DUAL_E5_2630_V3
    raise HardwareModelError(f"the paper's workstation has 1 or 2 sockets, not {sockets}")


def paper_workstation(*, sockets: int = 2, accelerator: str = "none",
                      precision: PrecisionLike = Precision.DOUBLE) -> Workstation:
    """Build one of the paper's workstation configurations.

    Parameters
    ----------
    sockets:
        1 or 2 CPU sockets.
    accelerator:
        ``"none"``, ``"phi"``, ``"k80-half"`` (one GPU of the K80), or
        ``"k80-dual"`` (both GPUs of the K80, as in Section 6).
    precision:
        Arithmetic precision for every device's calibration.
    """
    precision = Precision.parse(precision)
    cpu = SimulatedDevice.create(cpu_spec(sockets), precision)
    accelerator = accelerator.lower()
    specs: List[DeviceSpec]
    if accelerator == "none":
        specs = []
    elif accelerator == "phi":
        specs = [XEON_PHI_7120]
    elif accelerator == "k80-half":
        specs = [HALF_K80]
    elif accelerator == "k80-dual":
        # The K80 holds two identical GPUs with separate memories; model
        # each as an independent half-K80 device.
        specs = [HALF_K80, HALF_K80]
    elif accelerator == "k80-half+phi":
        specs = [HALF_K80, XEON_PHI_7120]
    else:
        raise HardwareModelError(
            f"unknown accelerator {accelerator!r}; choose from {ACCELERATOR_CHOICES}"
        )
    devices = tuple(SimulatedDevice.create(spec, precision) for spec in specs)
    return Workstation(cpu=cpu, accelerators=devices, precision=precision)


def custom_workstation(accelerator_specs, *, sockets: int = 2,
                       precision: PrecisionLike = Precision.DOUBLE) -> Workstation:
    """Build a workstation from an explicit list of device specs.

    Supports arbitrary heterogeneous combinations beyond the paper's
    configurations, e.g. two Phis or a Phi plus both K80 GPUs.
    """
    precision = Precision.parse(precision)
    cpu = SimulatedDevice.create(cpu_spec(sockets), precision)
    devices = tuple(
        SimulatedDevice.create(spec, precision) for spec in accelerator_specs
    )
    return Workstation(cpu=cpu, accelerators=devices, precision=precision)
