"""High-level facade over the whole library.

Three entry points mirror the three things the paper does:

* :func:`analyze` — one airfoil, one flow condition, full aerodynamic
  report (the inner solver).
* :func:`optimize` — the genetic optimization of an airfoil shape
  (the outer loop).
* :func:`simulate_hybrid` — the hybrid accelerator pipeline for a
  workload on a chosen workstation configuration (the contribution).

The serving wire format also lives here: :class:`AnalyzeRequest`
describes one evaluation, :func:`evaluate_requests` runs a stack of
them through the stacked assembly and LAPACK solve path, and
:func:`serialize_analysis` / :func:`canonical_json` render the result.
The CLI's ``--json`` output and the :mod:`repro.serve` HTTP responses
share all three, so both produce byte-identical records for identical
inputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import numbers
import os
import time
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import LinalgError, ReproError, ServeError
from repro.geometry.airfoil import Airfoil
from repro.geometry.naca import naca
from repro.hardware.host import paper_workstation
from repro.optimize.fitness import FitnessEvaluator
from repro.optimize.ga import GAConfig, GeneticOptimizer
from repro.optimize.genome import GenomeLayout
from repro.optimize.history import OptimizationHistory
from repro.linalg import condition_estimate_1norm, solve_stack
from repro.panel.assembly import assemble
from repro.panel.freestream import Freestream
from repro.panel.solution import PanelSolution
from repro.panel.solver import PanelSolver
from repro.pipeline.engine import Timeline, simulate
from repro.pipeline.metrics import HybridMetrics, evaluate
from repro.pipeline.schedules import cpu_only, dual_accelerator, hybrid
from repro.pipeline.workload import Workload
from repro.precision import Precision, PrecisionLike
from repro.viscous.drag import ViscousAnalysis, analyze_viscous

AirfoilLike = Union[Airfoil, str]


def _designation(airfoil: str) -> str:
    """The designation :func:`naca` builds for a requested spelling."""
    return str(airfoil).replace("NACA", "").strip()


def _as_airfoil(airfoil: AirfoilLike, n_panels: int) -> Airfoil:
    if isinstance(airfoil, Airfoil):
        return airfoil
    return naca(_designation(airfoil), n_panels)


@dataclasses.dataclass(frozen=True)
class AirfoilAnalysis:
    """Complete aerodynamic characterization of one configuration."""

    solution: PanelSolution
    viscous: Optional[ViscousAnalysis]

    @property
    def cl(self) -> float:
        """Lift coefficient (inviscid, Kutta–Joukowski)."""
        return self.solution.lift_coefficient

    @property
    def cd(self) -> Optional[float]:
        """Profile-drag coefficient (``None`` without a viscous pass)."""
        return self.viscous.drag_coefficient if self.viscous else None

    @property
    def cm(self) -> float:
        """Quarter-chord moment coefficient."""
        return self.solution.moment_coefficient()

    @property
    def lift_to_drag(self) -> Optional[float]:
        """``cl / cd`` (``None`` without a viscous pass)."""
        if self.viscous is None:
            return None
        return self.viscous.lift_to_drag

    def summary(self) -> str:
        """One-paragraph human-readable report."""
        foil = self.solution.airfoil
        lines = [
            f"{foil.name}: alpha = {self.solution.freestream.alpha_degrees:.2f} deg,"
            f" {foil.n_panels} panels",
            f"  cl = {self.cl:+.4f}   cm(c/4) = {self.cm:+.4f}",
        ]
        if self.viscous is not None:
            lines.append(
                f"  cd = {self.cd:.5f}   L/D = {self.lift_to_drag:.1f}"
                f"   Re = {self.viscous.reynolds:.2e}"
                + ("   (separated)" if self.viscous.separated else "")
            )
        return "\n".join(lines)


def analyze(airfoil: AirfoilLike, alpha_degrees: float = 0.0, *,
            reynolds: Optional[float] = 1e6, n_panels: int = 200,
            precision: PrecisionLike = Precision.DOUBLE,
            use_head: bool = True) -> AirfoilAnalysis:
    """Analyze an airfoil (by object or NACA designation string).

    ``reynolds=None`` skips the viscous pass (inviscid only).
    """
    foil = _as_airfoil(airfoil, n_panels)
    solver = PanelSolver(precision=Precision.parse(precision))
    solution = solver.solve(foil, Freestream.from_degrees(alpha_degrees))
    viscous = None
    if reynolds is not None:
        viscous = analyze_viscous(solution, reynolds, use_head=use_head)
    return AirfoilAnalysis(solution=solution, viscous=viscous)


def optimize(*, population_size: int = 60, generations: int = 8,
             n_panels: int = 120, reynolds: float = 5e5,
             seed: Optional[int] = None,
             layout: GenomeLayout = None) -> OptimizationHistory:
    """Run the paper's genetic airfoil optimization."""
    layout = layout or GenomeLayout()
    evaluator = FitnessEvaluator(layout=layout, n_panels=n_panels,
                                 reynolds=reynolds)
    config = GAConfig(population_size=population_size, generations=generations)
    optimizer = GeneticOptimizer(evaluator=evaluator, config=config)
    return optimizer.run(np.random.default_rng(seed))


@dataclasses.dataclass(frozen=True)
class HybridExperiment:
    """A simulated hybrid run with its baseline comparison."""

    metrics: HybridMetrics
    baseline: HybridMetrics
    timeline: Timeline

    @property
    def speedup(self) -> float:
        """Speedup over the CPU-only configuration."""
        return self.baseline.wall_time / self.metrics.wall_time


def simulate_hybrid(*, accelerator: str = "k80-half", sockets: int = 2,
                    precision: PrecisionLike = Precision.DOUBLE,
                    n_slices: int = 10, batch: int = 4000, n: int = 200,
                    distribution: float = 0.75) -> HybridExperiment:
    """Simulate one hybrid configuration against its CPU baseline.

    ``accelerator`` is one of ``"phi"``, ``"k80-half"``, ``"k80-dual"``.
    ``distribution`` only applies to the dual-GPU scheme.
    """
    precision = Precision.parse(precision)
    workload = Workload(batch=batch, n=n, precision=precision)
    workstation = paper_workstation(
        sockets=sockets, accelerator=accelerator, precision=precision
    )
    baseline_timeline = simulate(cpu_only(workload, workstation.cpu))
    baseline = evaluate(baseline_timeline)
    if accelerator == "k80-dual":
        schedule = dual_accelerator(workload, workstation, distribution, n_slices)
    else:
        schedule = hybrid(workload, workstation, n_slices)
    timeline = simulate(schedule)
    metrics = evaluate(timeline).with_baseline(baseline.wall_time)
    return HybridExperiment(metrics=metrics, baseline=baseline, timeline=timeline)


# ----------------------------------------------------------------------
# Serving wire format (shared by the CLI and repro.serve)
# ----------------------------------------------------------------------

#: Wire-format field names accepted by :meth:`AnalyzeRequest.from_dict`.
REQUEST_FIELDS = (
    "airfoil", "alpha_degrees", "reynolds", "n_panels", "precision", "use_head",
)

#: Largest ``n_panels`` a request may ask for.  The assembly kernel
#: works in row tiles of 64 KiB planes, so its scratch does not grow
#: with n (0.7 MiB at this cap); what grows are the ``n x n`` arrays
#: of 8·n² bytes each in float64: the influence matrix, the closed
#: system, its stacked copy and LAPACK's working copy.  At this cap one
#: request raises peak RSS by about 35 MiB, and the stacked systems of
#: a full 64-request micro-batch take 0.5 GiB.  The paper's systems
#: have 200 panels.
MAX_PANELS = 1024


def _validate_n_panels(value) -> int:
    """An even integer panel count in ``[4, MAX_PANELS]``, or ServeError.

    Booleans and non-integral numbers are rejected rather than coerced
    (``true`` is not 1 and ``200.7`` is not 200), and odd counts are
    rejected because the NACA and genome outlines need an even number
    of panels.
    """
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ServeError(f"n_panels must be an integer, got {value!r}")
    n_panels = int(value)
    if n_panels % 2 or not 4 <= n_panels <= MAX_PANELS:
        raise ServeError(
            f"n_panels must be an even number in [4, {MAX_PANELS}], "
            f"got {n_panels}"
        )
    return n_panels


#: Transport-level deadline field accepted alongside a request payload.
#: It is *not* part of :class:`AnalyzeRequest`: the deadline describes
#: how long the caller is willing to wait, never what is computed, so
#: it must not perturb cache keys or response records.
DEADLINE_FIELD = "deadline_ms"


def validate_deadline_ms(value) -> float:
    """Validate a relative deadline budget in milliseconds.

    Returns the budget as a float; raises :class:`ServeError` for
    non-numeric, non-finite, or non-positive values.
    """
    try:
        deadline = float(value)
    except (TypeError, ValueError):
        raise ServeError(f"deadline_ms must be a number, got {value!r}")
    if not math.isfinite(deadline) or deadline <= 0.0:
        raise ServeError(
            f"deadline_ms must be positive and finite, got {value!r}"
        )
    return deadline


def extract_deadline_ms(payload):
    """Split the transport-level deadline out of a wire payload.

    Returns ``(payload, deadline_ms)`` where *payload* no longer
    contains :data:`DEADLINE_FIELD` (the original dict is not mutated)
    and *deadline_ms* is a validated float or ``None``.  Non-dict
    payloads pass through untouched so :meth:`AnalyzeRequest.from_dict`
    can produce its usual error.
    """
    if not isinstance(payload, dict) or DEADLINE_FIELD not in payload:
        return payload, None
    payload = dict(payload)
    raw = payload.pop(DEADLINE_FIELD)
    if raw is None:
        return payload, None
    return payload, validate_deadline_ms(raw)


@dataclasses.dataclass(frozen=True)
class AnalyzeRequest:
    """One airfoil-evaluation request (the serving wire format).

    Parameters mirror :func:`analyze`; ``airfoil`` is a NACA
    designation string on the wire (an :class:`Airfoil` object is also
    accepted for in-process use).  ``reynolds=None`` skips the viscous
    pass.

    :meth:`run` evaluates through the stacked assembly/solve path (a
    stack of one), so an offline CLI evaluation and a served one
    compute bit-identical numbers — LAPACK solves each member of a
    stack on its own, making each result independent of what else
    shares its micro-batch.  :func:`analyze` solves through the same
    :func:`repro.linalg.solve_stack`, so it agrees with :meth:`run` to
    the bit as well.
    """

    airfoil: Union[str, Airfoil]
    alpha_degrees: float = 0.0
    reynolds: Optional[float] = 1e6
    n_panels: int = 200
    precision: Precision = Precision.DOUBLE
    use_head: bool = True

    def __post_init__(self) -> None:
        if isinstance(self.airfoil, str):
            if not self.airfoil.strip():
                raise ServeError("airfoil designation must be a non-empty string")
        elif not isinstance(self.airfoil, Airfoil):
            raise ServeError(
                f"airfoil must be a designation string or Airfoil, "
                f"got {type(self.airfoil).__name__}"
            )
        alpha = float(self.alpha_degrees)
        if not math.isfinite(alpha):
            raise ServeError(f"alpha_degrees must be finite, got {self.alpha_degrees}")
        object.__setattr__(self, "alpha_degrees", alpha)
        if self.reynolds is not None:
            reynolds = float(self.reynolds)
            if not math.isfinite(reynolds) or reynolds <= 0.0:
                raise ServeError(
                    f"reynolds must be positive and finite (or null), got {self.reynolds}"
                )
            object.__setattr__(self, "reynolds", reynolds)
        object.__setattr__(self, "n_panels", _validate_n_panels(self.n_panels))
        try:
            object.__setattr__(self, "precision", Precision.parse(self.precision))
        except (ValueError, TypeError) as error:
            raise ServeError(str(error))
        object.__setattr__(self, "use_head", bool(self.use_head))

    @classmethod
    def from_dict(cls, payload) -> "AnalyzeRequest":
        """Parse a wire-format request, rejecting unknown fields.

        ``alpha`` is accepted as an alias for ``alpha_degrees``, and a
        Reynolds number of 0 means "inviscid only" (like the CLI's
        ``--reynolds 0``).
        """
        if not isinstance(payload, dict):
            raise ServeError(
                f"request payload must be a JSON object, got {type(payload).__name__}"
            )
        payload = dict(payload)
        if "alpha" in payload:
            if "alpha_degrees" in payload:
                raise ServeError("give either 'alpha' or 'alpha_degrees', not both")
            payload["alpha_degrees"] = payload.pop("alpha")
        unknown = sorted(set(payload) - set(REQUEST_FIELDS))
        if unknown:
            raise ServeError(f"unknown request fields: {', '.join(unknown)}")
        if "airfoil" not in payload:
            raise ServeError("request is missing the 'airfoil' field")
        if not isinstance(payload["airfoil"], str):
            raise ServeError("'airfoil' must be a designation string")
        if payload.get("reynolds") in (0, 0.0):
            payload["reynolds"] = None
        try:
            return cls(**payload)
        except (TypeError, ValueError) as error:
            raise ServeError(f"invalid request payload: {error}")

    def to_dict(self) -> dict:
        """The wire-format rendering of this request."""
        if not isinstance(self.airfoil, str):
            raise ServeError(
                "only designation-string requests are JSON-serializable; "
                f"got an Airfoil object ({self.airfoil.name!r})"
            )
        return {
            "airfoil": self.airfoil,
            "alpha_degrees": self.alpha_degrees,
            "reynolds": self.reynolds,
            "n_panels": self.n_panels,
            "precision": self.precision.value,
            "use_head": self.use_head,
        }

    def build_airfoil(self) -> Airfoil:
        """The discretized geometry this request evaluates."""
        return _as_airfoil(self.airfoil, self.n_panels)

    def freestream(self) -> Freestream:
        """The onset flow this request evaluates under."""
        return Freestream.from_degrees(self.alpha_degrees)

    def cache_key(self) -> str:
        """Digest of what this request computes; builds no geometry.

        A designation is keyed by the string :func:`naca` builds and the
        panel count, so ``"2412"`` and ``"NACA 2412"`` share an entry
        while ``"0012"`` and ``"0412"`` — equal outlines, differently
        named bodies — do not.  An :class:`Airfoil` is keyed by its
        points and its name.  The flow and solver fields follow.
        """
        digest = hashlib.sha256()
        if isinstance(self.airfoil, Airfoil):
            points = np.ascontiguousarray(self.airfoil.points, dtype=np.float64)
            digest.update(repr(("airfoil", self.airfoil.name,
                                points.shape)).encode("utf-8"))
            digest.update(points.tobytes())
        else:
            digest.update(repr(("naca", _designation(self.airfoil),
                                self.n_panels)).encode("utf-8"))
        digest.update(repr((
            self.alpha_degrees,
            self.reynolds,
            self.precision.value,
            self.use_head,
        )).encode("ascii"))
        return digest.hexdigest()

    def run(self) -> "AirfoilAnalysis":
        """Evaluate this request (batched path, stack of one)."""
        result = evaluate_requests([self])[0]
        if isinstance(result, Exception):
            raise result
        return result


@dataclasses.dataclass(frozen=True)
class SolvedSystem:
    """A solved panel system, ready for post-processing.

    This is what :func:`solve_request_systems` returns per request: the
    assembled-and-solved state *before* the viscous pass and response
    shaping.  ``gamma`` is the expanded circulation row in the system's
    native precision (the post-process step widens it to ``float64``,
    exactly); ``constant`` is the boundary-condition constant from the
    closure row.
    """

    airfoil: Airfoil
    freestream: Freestream
    closure: object
    gamma: np.ndarray
    constant: float


#: Fewest systems each thread must get before a stack is split across
#: threads.  On a 2-core host two threads already solve 8 n=200 systems
#: about 20% faster than one (the "Sharding" table in
#: ``docs/serving.md``), while the 1-2 request micro-batches of light
#: serving traffic stay in the calling thread.
MIN_SYSTEMS_PER_SHARD = 4


def usable_cores() -> int:
    """CPUs this process may run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        return os.cpu_count() or 1


def plan_shards(n_items: int, n_shards: int) -> List[Tuple[int, int]]:
    """Cut ``range(n_items)`` into at most *n_shards* contiguous chunks.

    Chunks are balanced to within one item and never empty, so the
    shard count adapts to small batches (a 3-item stack over 4 shards
    yields 3 single-item chunks).
    """
    n_shards = max(1, min(int(n_shards), int(n_items)))
    base, extra = divmod(int(n_items), n_shards)
    bounds = []
    start = 0
    for index in range(n_shards):
        stop = start + base + (1 if index < extra else 0)
        bounds.append((start, stop))
        start = stop
    return bounds


def merge_envelope(spans: Sequence[Tuple[float, float]]
                   ) -> Optional[Tuple[float, float]]:
    """The ``(min_start, max_end)`` envelope of concurrent spans.

    This is the *wall* time of a stage running on several threads at
    once — the number the paper's W/A/L/O tables put in the ``A`` and
    ``L`` columns — as opposed to the sum of per-shard durations,
    which measures CPU work and exceeds wall time whenever shards
    overlap.
    """
    if not spans:
        return None
    return min(start for start, _ in spans), max(end for _, end in spans)


def _solve_members(members, matrices: np.ndarray, rhs: np.ndarray,
                   results: List) -> List:
    """Solve a group one system at a time after its stack failed.

    A stack of one gives the same bits as the member inside the stack,
    so the survivors keep their stacked answer; each singular member
    gets its own :class:`LinalgError` with its condition estimate.
    Returns the ``(member, row)`` pairs that solved.
    """
    solved = []
    for member, matrix, vector in zip(members, matrices, rhs):
        index, system = member
        try:
            solved.append((member, solve_stack(matrix[None], vector[None])[0]))
        except LinalgError:
            results[index] = LinalgError(
                f"singular panel system for {system.airfoil.name} "
                f"(n={matrix.shape[0]}): 1-norm condition estimate "
                f"{condition_estimate_1norm(matrix):.3g}"
            )
    return solved


def _assemble_and_solve(requests: Sequence[AnalyzeRequest]) -> tuple:
    """Assemble and solve one contiguous run of requests.

    Returns ``(results, stamps)``: one entry per request as
    :func:`solve_request_systems` documents, and ``{stage: [(start,
    end, count), ...]}`` for this shard's ``assembly`` loop and each
    of its stacked solves.
    """
    results: List = [None] * len(requests)
    groups: dict = {}
    assembly_started = time.monotonic()
    for index, request in enumerate(requests):
        try:
            system = assemble(request.build_airfoil(), request.freestream(),
                              dtype=request.precision.dtype)
        except ReproError as error:
            results[index] = error
            continue
        key = (system.n_unknowns, system.matrix.dtype)
        groups.setdefault(key, []).append((index, system))
    stamps = {"assembly": [(assembly_started, time.monotonic(),
                            len(requests))]}
    solved = []
    for members in groups.values():
        matrices = np.stack([system.matrix for _, system in members])
        rhs = np.stack([system.rhs for _, system in members])
        solve_started = time.monotonic()
        try:
            solved.extend(zip(members, solve_stack(matrices, rhs)))
        except LinalgError:
            solved.extend(_solve_members(members, matrices, rhs, results))
        finally:
            stamps.setdefault("solve", []).append(
                (solve_started, time.monotonic(), len(members)))
    for (index, system), row in solved:
        try:
            gamma, constant = system.expand_solution(row)
        except ReproError as error:
            results[index] = error
            continue
        results[index] = SolvedSystem(
            airfoil=system.airfoil, freestream=system.freestream,
            closure=system.closure, gamma=gamma, constant=constant,
        )
    return results, stamps


def solve_request_systems(requests: Sequence[AnalyzeRequest], *,
                          stage_hook=None) -> List:
    """Assemble and solve many requests.

    Requests are grouped by system size and dtype; each group is
    assembled into one ``(batch, m, m)`` stack and solved with
    :func:`repro.linalg.solve_stack` — LAPACK's ``getrf``/``getrs``
    per member, as the paper's CPU solves.  When every usable core
    (:func:`usable_cores`) would get at least
    :data:`MIN_SYSTEMS_PER_SHARD` requests, the stack is cut into
    contiguous shards (:func:`plan_shards`) solved on a per-call thread
    pool; numpy's array operations and LAPACK release the GIL, so the
    shards overlap on a multi-core host.
    LAPACK solves each member on its own with BLAS pinned to one
    thread, so a sharded solve is bit-identical to an unsharded one.

    A singular member fails alone: when a stack raises
    :class:`LinalgError`, the group is re-solved one system at a time,
    the survivors keep the bits they would have had in the stack, and
    only the singular member gets a :class:`LinalgError` naming its
    airfoil and its 1-norm condition estimate.

    ``stage_hook`` receives ``(stage, start, end, count)`` stamps from
    the calling thread: one ``"assembly"`` and one ``"solve"`` span,
    each the wall-time envelope (:func:`merge_envelope`) of that stage
    across shards and size groups.

    Returns one entry per request, in order: a :class:`SolvedSystem` on
    success, or the :class:`ReproError` that request raised.
    """
    requests = list(requests)
    n_shards = min(usable_cores(), len(requests) // MIN_SYSTEMS_PER_SHARD)
    if n_shards <= 1:
        shards = [_assemble_and_solve(requests)]
    else:
        with ThreadPoolExecutor(max_workers=n_shards) as pool:
            futures = [
                pool.submit(_assemble_and_solve, requests[start:stop])
                for start, stop in plan_shards(len(requests), n_shards)
            ]
            shards = [future.result() for future in futures]
    results: List = []
    stamps: dict = {}
    for shard_results, shard_stamps in shards:
        results.extend(shard_results)
        for stage, spans in shard_stamps.items():
            stamps.setdefault(stage, []).extend(spans)
    if stage_hook is not None:
        for stage, spans in stamps.items():
            start, end = merge_envelope([span[:2] for span in spans])
            stage_hook(stage, start, end, sum(span[2] for span in spans))
    return results


def evaluate_requests(requests: Sequence[AnalyzeRequest], *,
                      stage_hook=None) -> List:
    """Evaluate many requests through the stacked assembly/solve path.

    The assembly and LAPACK solve run in :func:`solve_request_systems`
    (sharded across threads for large stacks); the viscous pass and
    response shaping run in the calling thread.

    ``stage_hook``, when given, is called as ``stage_hook(stage, start,
    end, count)`` with monotonic stamps around each internal stage —
    ``"assembly"`` and ``"solve"`` once each (wall-time envelopes),
    ``"postprocess"`` once for the expand+viscous loop — so the
    serving tracer and ``analyze --trace`` can report the paper's
    W/A/L/O decomposition for live work without this module knowing
    anything about spans.

    Returns one entry per request, in order: an
    :class:`AirfoilAnalysis` on success, or the :class:`ReproError`
    that request raised (so one bad geometry cannot poison its
    batchmates).
    """
    requests = list(requests)
    solved = solve_request_systems(requests, stage_hook=stage_hook)
    results: List = [None] * len(requests)
    post_started = time.monotonic()
    for index, (request, entry) in enumerate(zip(requests, solved)):
        if isinstance(entry, BaseException):
            results[index] = entry
            continue
        try:
            solution = PanelSolution(
                airfoil=entry.airfoil,
                freestream=entry.freestream,
                closure=entry.closure,
                gamma=np.asarray(entry.gamma, dtype=np.float64),
                constant=entry.constant,
            )
            viscous = None
            if request.reynolds is not None:
                viscous = analyze_viscous(solution, request.reynolds,
                                          use_head=request.use_head)
            results[index] = AirfoilAnalysis(solution=solution, viscous=viscous)
        except ReproError as error:
            results[index] = error
    if stage_hook is not None:
        stage_hook("postprocess", post_started, time.monotonic(),
                   len(requests))
    return results


def serialize_analysis(request: AnalyzeRequest, analysis: AirfoilAnalysis) -> dict:
    """The wire-format response record for one evaluated request."""
    solution = analysis.solution
    return {
        "airfoil": solution.airfoil.name,
        "alpha_degrees": float(request.alpha_degrees),
        "n_panels": int(solution.airfoil.n_panels),
        "precision": request.precision.value,
        "reynolds": None if request.reynolds is None else float(request.reynolds),
        "use_head": bool(request.use_head),
        "cl": float(analysis.cl),
        "cm": float(analysis.cm),
        "cd": None if analysis.cd is None else float(analysis.cd),
        "lift_to_drag": (None if analysis.lift_to_drag is None
                         else float(analysis.lift_to_drag)),
        "separated": (None if analysis.viscous is None
                      else bool(analysis.viscous.separated)),
    }


def canonical_json(payload) -> str:
    """Canonical JSON rendering: sorted keys, compact separators.

    Every producer of wire-format records (the CLI's ``--json`` and the
    serve HTTP responses) goes through this one function, which is what
    makes equal payloads byte-identical.
    """
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
