"""Exception hierarchy for the VIBNN reproduction.

Every error raised by this library derives from :class:`ReproError` so that
callers can catch library failures without also swallowing programming
errors (``TypeError``, ``KeyError``...).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class ConfigurationError(ReproError):
    """An object was constructed with inconsistent or out-of-range parameters."""


class FixedPointOverflowError(ReproError):
    """A fixed-point operation overflowed and saturation was disabled."""


class MemoryPortConflictError(ReproError):
    """Too many accesses were issued to a hardware RAM model in one cycle."""


class MemoryAccessError(ReproError):
    """An out-of-range address or word-width mismatch on a memory model."""


class SchedulingError(ReproError):
    """The accelerator controller could not schedule a layer on the PE array."""


class TrainingError(ReproError):
    """Neural-network training diverged or was configured incorrectly."""


class DatasetError(ReproError):
    """A synthetic dataset generator received inconsistent parameters."""


class AnalysisError(ReproError):
    """The static-analysis layer (reprolint) could not run: unparseable
    source, a malformed baseline file, or an unknown rule id."""


class ServingError(ReproError):
    """Base class for errors raised by the serving subsystem."""


class UnknownModelError(ServingError):
    """A request named a model that is not registered in the serving registry."""


class ServiceOverloaded(ServingError):
    """The serving request queue is full; the caller should back off and retry.

    This is the typed backpressure signal of the micro-batching scheduler:
    raised at submit time when the bounded queue already holds
    ``queue_capacity`` pending requests, so producers feel load instead of
    the service buffering without bound.
    """


class AdmissionShed(ServiceOverloaded):
    """The admission controller shed this request by SLO class.

    Raised at submit time by a resilience-enabled service when measured
    queue pressure exceeds the class's shed threshold and the class's
    token-bucket trickle is exhausted.  A subclass of
    :class:`ServiceOverloaded` so existing backpressure handlers keep
    working; catching this type specifically distinguishes "shed by
    policy" from "queue physically full".
    """


class DeadlineExceeded(ServingError):
    """A request's deadline expired before a worker could serve it.

    Delivered to the ticket (and every coalesced follower sharing it) when
    the executing worker finds the request past its deadline — the one
    deadline check, after the batch is popped; never silently dropped.
    """


class WorkerCrashed(ServingError):
    """A serving worker died or stalled while holding this request's batch.

    The supervisor fails the batch's tickets with this typed error instead
    of letting them hang, then restarts the worker slot on a fresh
    decorrelated stream (see ``docs/RESILIENCE.md``).
    """


class InjectedWorkerKill(BaseException):
    """Chaos-injected worker death, scripted by a serving ``FaultPlan``.

    The one deliberate exception to the ``ReproError`` hierarchy (like
    ``NotImplementedError``): the per-batch fault barrier in the serving
    workers catches ``Exception`` so predictor faults fail tickets without
    killing the thread — an injected *kill* must punch through that
    barrier and terminate the worker, leaving its batch for the supervisor
    to fail over (exactly the failure mode being rehearsed).
    """
