"""Exception hierarchy for the :mod:`repro` library.

Every error raised on purpose by the library derives from
:class:`ReproError` so that callers can catch library failures without
accidentally swallowing programming errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GeometryError(ReproError):
    """Raised when an airfoil or curve geometry is invalid.

    Examples include open contours where a closed one is required,
    self-intersecting outlines, or degenerate (zero-length) panels.
    """


class LinalgError(ReproError):
    """Raised when a linear-algebra routine cannot complete.

    The most common cause is a (numerically) singular matrix encountered
    during LU factorization.
    """


class PanelMethodError(ReproError):
    """Raised when the panel-method solver is configured inconsistently."""


class ViscousError(ReproError):
    """Raised when a boundary-layer computation fails.

    Laminar separation ahead of any usable transition point, or inputs
    that are not physically meaningful (non-positive Reynolds number),
    raise this error.
    """


class OptimizationError(ReproError):
    """Raised when the genetic optimizer is misconfigured."""


class HardwareModelError(ReproError):
    """Raised for invalid device specifications or kernel requests."""


class ScheduleError(ReproError):
    """Raised when a pipeline schedule is inconsistent.

    Examples: cyclic task dependencies, tasks referencing unknown
    resources, or a slice plan that does not cover the full batch.
    """


class CalibrationError(ReproError):
    """Raised when calibration data is missing or self-inconsistent."""


class ServeError(ReproError):
    """Raised by the serving subsystem for invalid requests or misuse.

    Examples: a malformed analyze payload, submitting to a service that
    is shutting down, or a client-side transport failure.
    """


class OverloadedError(ServeError):
    """Raised when the service sheds load (admission queue is full).

    Clients should back off and retry; the HTTP front end maps this to
    a ``503 Service Unavailable`` response.
    """


class DeadlineExceededError(ServeError):
    """Raised when a request's deadline expires before it is evaluated.

    Expired work is shed at batch-collection time so it never occupies
    a solve slot; the HTTP front end maps this to a ``504 Gateway
    Timeout`` response.  Retrying is pointless unless the caller also
    extends the deadline.
    """


class ClusterError(ServeError):
    """Raised by the cluster router for invalid topology or misuse.

    Examples: a malformed or duplicate replica URL, routing with no
    healthy replica left, or placing a job when no replica has the
    jobs subsystem enabled.  The router CLI surfaces this as a clean
    one-line error instead of a raw socket traceback.
    """


class JobError(ServeError):
    """Raised by the jobs subsystem for invalid specs or misuse.

    Examples: a malformed job spec, submitting to a server without a
    jobs directory, or a corrupt (non-final) journal line.
    """


class JobNotFoundError(JobError):
    """Raised when a job ID does not exist in the jobs store.

    The HTTP front end maps this to a ``404 Not Found`` response.
    """


class ExperimentError(ReproError):
    """Raised when an experiment harness receives an unknown target."""
