"""repro: two-dimensional panel codes with simulated hybrid acceleration.

A full reproduction of Einkemmer, "Evaluation of the Intel Xeon Phi and
NVIDIA K80 as accelerators for two-dimensional panel codes": a vortex
panel method with viscous correction and genetic shape optimization,
plus calibrated device models and a discrete-event pipeline simulator
that regenerate every table and figure of the paper's evaluation.

Quickstart::

    from repro import analyze, simulate_hybrid

    print(analyze("2412", alpha_degrees=4.0).summary())
    experiment = simulate_hybrid(accelerator="k80-half", sockets=2)
    print(f"speedup: {experiment.speedup:.2f}x")

Subpackages
-----------
``repro.geometry``
    Airfoils, NACA generators, B-splines.
``repro.linalg``
    The stacked LAPACK solve every panel system goes through, and the
    from-scratch (batched) LU kept as its test oracle.
``repro.panel``
    The vortex panel method (the paper's inner solver).
``repro.viscous``
    Thwaites/Michel/Head boundary layers and Squire–Young drag.
``repro.optimize``
    The genetic airfoil optimizer.
``repro.hardware``
    Calibrated device models (Tables 1-2).
``repro.pipeline``
    The hybrid interleaving schedules and event simulator (Figures 3-4,
    Tables 3-5).
``repro.experiments``
    One-call regeneration of every table and figure.
``repro.validation``
    Analytic references (cylinder, Joukowski, thin-airfoil theory).
"""

from repro.core.api import (
    AirfoilAnalysis,
    HybridExperiment,
    analyze,
    optimize,
    simulate_hybrid,
)
from repro.errors import ReproError
from repro.precision import Precision

__version__ = "1.0.0"

__all__ = [
    "AirfoilAnalysis",
    "HybridExperiment",
    "Precision",
    "ReproError",
    "__version__",
    "analyze",
    "optimize",
    "simulate_hybrid",
]
