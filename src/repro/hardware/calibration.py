"""Kernel calibration from the paper's Table 2 measurements.

The simulator's kernel timings are anchored to the paper's own
measurements: Table 2 gives the seconds each device needs to assemble
and solve the reference workload (4000 candidate geometries, 200 panels
each).  From those anchors the cost model scales to other problem sizes
with the kernels' arithmetic complexity (``n^2`` per matrix for
assembly, ``2/3 n^3`` for the LU solve).

This module also reports the *implied efficiency* of each kernel
(achieved fraction of the device's peak flops), which documents why the
paper's hybrid scheme works: batched small-matrix LU reaches a few
percent of peak on the accelerators but ~2-4x more on the CPU, while
assembly is the mirror image.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Tuple

from repro.errors import CalibrationError
from repro.hardware.specs import (
    DUAL_E5_2630_V3,
    E5_2630_V3,
    HALF_K80,
    XEON_PHI_7120,
    DeviceSpec,
)
from repro.linalg.lu import factor_flops, solve_flops
from repro.panel.influence import ASSEMBLY_FLOPS_PER_ENTRY
from repro.precision import Precision

#: The reference workload behind Table 2.
REFERENCE_BATCH = 4000
REFERENCE_N = 200


@dataclasses.dataclass(frozen=True)
class KernelAnchor:
    """Measured seconds for the reference workload on one device."""

    assembly_seconds: float
    solve_seconds: float

    def __post_init__(self) -> None:
        if self.assembly_seconds <= 0.0 or self.solve_seconds <= 0.0:
            raise CalibrationError("anchor times must be positive")


# Paper Table 2 verbatim: {(device name, precision): (assembly, solve)}.
PAPER_TABLE2: Dict[Tuple[str, Precision], KernelAnchor] = {
    (E5_2630_V3.name, Precision.SINGLE): KernelAnchor(4.97, 1.75),
    (E5_2630_V3.name, Precision.DOUBLE): KernelAnchor(9.40, 2.85),
    (DUAL_E5_2630_V3.name, Precision.SINGLE): KernelAnchor(2.76, 1.07),
    (DUAL_E5_2630_V3.name, Precision.DOUBLE): KernelAnchor(5.19, 2.05),
    (XEON_PHI_7120.name, Precision.SINGLE): KernelAnchor(1.35, 3.60),
    (XEON_PHI_7120.name, Precision.DOUBLE): KernelAnchor(2.69, 4.72),
    (HALF_K80.name, Precision.SINGLE): KernelAnchor(0.46, 3.70),
    (HALF_K80.name, Precision.DOUBLE): KernelAnchor(0.79, 4.42),
}


@dataclasses.dataclass(frozen=True)
class KernelCalibration:
    """Per-matrix kernel times for one (device, precision) pair.

    ``assembly_per_matrix`` and ``solve_per_matrix`` are seconds for one
    ``REFERENCE_N``-panel candidate; :mod:`repro.hardware.kernels`
    rescales them by the kernel complexity for other sizes.
    """

    device: DeviceSpec
    precision: Precision
    assembly_per_matrix: float
    solve_per_matrix: float

    @property
    def assembly_efficiency(self) -> float:
        """Achieved fraction of peak flops during assembly."""
        flops = REFERENCE_N**2 * ASSEMBLY_FLOPS_PER_ENTRY
        return flops / (self.assembly_per_matrix * self.device.peak_flops(self.precision))

    @property
    def solve_efficiency(self) -> float:
        """Achieved fraction of peak flops during the batched LU solve."""
        flops = factor_flops(REFERENCE_N) + solve_flops(REFERENCE_N)
        return flops / (self.solve_per_matrix * self.device.peak_flops(self.precision))


def calibrate(device: DeviceSpec, precision: Precision) -> KernelCalibration:
    """Look up the Table 2 anchor for a device and derive per-matrix times.

    Raises :class:`CalibrationError` for devices without a Table 2 row
    (the full K80 is never measured alone in the paper; its halves are).
    """
    precision = Precision.parse(precision)
    anchor = PAPER_TABLE2.get((device.name, precision))
    if anchor is None:
        raise CalibrationError(
            f"no Table 2 anchor for device {device.name!r} at {precision}"
        )
    return KernelCalibration(
        device=device,
        precision=precision,
        assembly_per_matrix=anchor.assembly_seconds / REFERENCE_BATCH,
        solve_per_matrix=anchor.solve_seconds / REFERENCE_BATCH,
    )


def calibrate_from_measurement(device: DeviceSpec, precision, *,
                               assembly_seconds: float, solve_seconds: float,
                               batch: int, n: int) -> KernelCalibration:
    """Back out Table-2-style anchors from a *live* measurement.

    Given how long this machine actually spends assembling and solving
    ``batch`` systems of size ``n``, rescaling by
    the kernels' arithmetic complexity (``n^2`` for assembly, the LU
    flop ratio for solve) converts that measurement into the same
    per-matrix-at-``REFERENCE_N`` anchors Table 2 provides, so the whole
    simulator — schedules, theory, ``tune_slices`` — runs unchanged on
    fitted production throughputs.
    """
    precision = Precision.parse(precision)
    if int(batch) < 1 or int(n) < 3:
        raise CalibrationError(
            f"measurement needs batch >= 1 and n >= 3, got batch={batch} n={n}"
        )
    if assembly_seconds <= 0.0 or solve_seconds <= 0.0:
        raise CalibrationError(
            f"measured kernel times must be positive, got "
            f"assembly={assembly_seconds!r} solve={solve_seconds!r}"
        )
    assembly_scale = (n / REFERENCE_N) ** 2
    solve_scale = ((factor_flops(n) + solve_flops(n))
                   / (factor_flops(REFERENCE_N) + solve_flops(REFERENCE_N)))
    return KernelCalibration(
        device=device,
        precision=precision,
        assembly_per_matrix=assembly_seconds / batch / assembly_scale,
        solve_per_matrix=solve_seconds / batch / solve_scale,
    )


def implied_efficiencies() -> Dict[Tuple[str, str], Tuple[float, float]]:
    """(assembly, solve) efficiency for every calibrated device.

    Documents the paper's Section 3 observation: accelerators are
    efficient at assembly and poor at batched small-matrix LU, CPUs the
    reverse.
    """
    table: Dict[Tuple[str, str], Tuple[float, float]] = {}
    devices = {spec.name: spec for spec in
               (E5_2630_V3, DUAL_E5_2630_V3, XEON_PHI_7120, HALF_K80)}
    for (name, precision), _ in PAPER_TABLE2.items():
        calibration = calibrate(devices[name], precision)
        table[(name, precision.short_name)] = (
            calibration.assembly_efficiency,
            calibration.solve_efficiency,
        )
    return table
