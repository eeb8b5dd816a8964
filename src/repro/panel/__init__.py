"""The panel method: the paper's inner solver.

Public surface:

* :class:`PanelSolver` / :func:`solve_airfoil` — solve a configuration.
* :class:`PanelSolution` — vortex strengths plus lift, pressure, moment.
* :func:`assemble` / :func:`assemble_batch` — raw system assembly (what
  the accelerators compute in the paper).
* :class:`Freestream`, :class:`Closure` — problem definition.
"""

from repro.panel.assembly import (
    Closure,
    PanelSystem,
    assemble,
    assemble_batch,
    influence_matrix,
)
from repro.panel.freestream import Freestream
from repro.panel.influence import (
    ASSEMBLY_FLOPS_PER_ENTRY,
    assembly_flops,
    stream_influence_matrix,
    velocity_influence,
)
from repro.panel.kernels import DEFAULT_KERNEL, KERNEL_NAMES, resolve_kernel
from repro.panel.hess_smith import (
    HessSmithSolution,
    solve_hess_smith,
    source_velocity_influence,
)
from repro.panel.multielement import MultiElementSolution, solve_multielement
from repro.panel.solution import PanelSolution
from repro.panel.solver import PanelSolver, solve_airfoil
from repro.panel.streamlines import Streamline, trace_streamline, trace_streamlines

__all__ = [
    "ASSEMBLY_FLOPS_PER_ENTRY",
    "DEFAULT_KERNEL",
    "KERNEL_NAMES",
    "resolve_kernel",
    "Closure",
    "Freestream",
    "HessSmithSolution",
    "MultiElementSolution",
    "PanelSolution",
    "PanelSolver",
    "PanelSystem",
    "Streamline",
    "assemble",
    "assemble_batch",
    "assembly_flops",
    "influence_matrix",
    "solve_airfoil",
    "solve_hess_smith",
    "solve_multielement",
    "source_velocity_influence",
    "stream_influence_matrix",
    "trace_streamline",
    "trace_streamlines",
    "velocity_influence",
]
