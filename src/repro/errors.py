"""SGX status codes and the exception hierarchy used across the simulator.

The real Intel SGX SDK reports errors through ``sgx_status_t`` return codes.
This module mirrors the subset of codes that the paper's system interacts
with, and adds an exception hierarchy so Python call sites can use either
style: trusted SDK facades raise :class:`SgxError` subclasses carrying a
:class:`SgxStatus`, and code that wants C-style handling can catch them and
inspect ``.status``.

The hierarchy is split along one load-bearing axis for the crash-safe
migration protocol: **retryable vs. fatal**.  Everything deriving from
:class:`TransientError` (a dropped connection, ``SGX_ERROR_BUSY``, a service
timeout) may succeed if simply attempted again, and the protocol's retry
loops dispatch on exactly that type.  Everything else — above all the
:class:`MigrationError` family — is fatal for the current attempt and must
surface to the caller.  Every error in both families carries an
``sgx_status_t``-style code in ``.status``.
"""

from __future__ import annotations

import enum


class SgxStatus(enum.Enum):
    """Subset of ``sgx_status_t`` values relevant to sealing, counters,
    attestation, and the migration framework."""

    SGX_SUCCESS = 0x0000
    SGX_ERROR_UNEXPECTED = 0x0001
    SGX_ERROR_INVALID_PARAMETER = 0x0002
    SGX_ERROR_OUT_OF_MEMORY = 0x0003
    SGX_ERROR_ENCLAVE_LOST = 0x0004
    SGX_ERROR_INVALID_STATE = 0x0005
    SGX_ERROR_INVALID_ENCLAVE = 0x2001
    SGX_ERROR_INVALID_SIGNATURE = 0x2004
    SGX_ERROR_ENCLAVE_CRASHED = 0x2006
    SGX_ERROR_MAC_MISMATCH = 0x3001
    SGX_ERROR_INVALID_ATTRIBUTE = 0x3002
    SGX_ERROR_INVALID_CPUSVN = 0x3003
    SGX_ERROR_INVALID_ISVSVN = 0x3004
    SGX_ERROR_INVALID_KEYNAME = 0x3005
    SGX_ERROR_SERVICE_UNAVAILABLE = 0x4001
    SGX_ERROR_SERVICE_TIMEOUT = 0x4002
    SGX_ERROR_BUSY = 0x400A
    SGX_ERROR_MC_NOT_FOUND = 0x400C
    SGX_ERROR_MC_NO_ACCESS_RIGHT = 0x400D
    SGX_ERROR_MC_USED_UP = 0x400E
    SGX_ERROR_MC_OVER_QUOTA = 0x400F


class ReproError(Exception):
    """Base class for every error raised by this library."""


class SgxError(ReproError):
    """An SGX-level failure carrying an ``sgx_status_t``-style code."""

    status: SgxStatus = SgxStatus.SGX_ERROR_UNEXPECTED

    def __init__(self, message: str = "", status: SgxStatus | None = None):
        if status is not None:
            self.status = status
        if not message:
            message = self.status.name
        super().__init__(message)


class InvalidParameterError(SgxError):
    status = SgxStatus.SGX_ERROR_INVALID_PARAMETER


class EnclaveLostError(SgxError):
    """The enclave was destroyed (app closed/crashed, machine hibernated)."""

    status = SgxStatus.SGX_ERROR_ENCLAVE_LOST


class InvalidStateError(SgxError):
    status = SgxStatus.SGX_ERROR_INVALID_STATE


class MacMismatchError(SgxError):
    """Authenticated decryption failed — wrong key or tampered ciphertext."""

    status = SgxStatus.SGX_ERROR_MAC_MISMATCH


class CounterNotFoundError(SgxError):
    """Monotonic counter does not exist (never created, or destroyed)."""

    status = SgxStatus.SGX_ERROR_MC_NOT_FOUND


class CounterAccessError(SgxError):
    """Caller enclave does not own the counter (nonce mismatch)."""

    status = SgxStatus.SGX_ERROR_MC_NO_ACCESS_RIGHT


class CounterQuotaError(SgxError):
    """Enclave exceeded its quota of 256 monotonic counters."""

    status = SgxStatus.SGX_ERROR_MC_OVER_QUOTA


class TransientError(ReproError):
    """A failure that may succeed if the operation is simply retried.

    Retry loops (:func:`repro.core.retry.call_with_retries`) dispatch on
    this type and on nothing else: anything not transient is fatal for the
    current attempt.  Like :class:`SgxError`, every transient error carries
    an ``sgx_status_t``-style code in ``.status``.
    """

    status: SgxStatus = SgxStatus.SGX_ERROR_SERVICE_UNAVAILABLE


class ServiceUnavailableError(SgxError, TransientError):
    """Platform Services (PSE) could not be reached."""

    status = SgxStatus.SGX_ERROR_SERVICE_UNAVAILABLE


class AttestationError(ReproError):
    """Local or remote attestation failed (identity mismatch, bad MAC,
    revoked platform, stale quote...)."""


class ChannelError(ReproError):
    """Secure channel violation: bad record MAC, replayed or out-of-order
    sequence number, or use of a closed channel."""


class MigrationError(SgxError):
    """Fatal migration protocol failure (library frozen, wrong destination,
    unauthorized machine, no matching enclave...).  Not retryable."""

    status = SgxStatus.SGX_ERROR_INVALID_STATE


class PolicyViolationError(MigrationError):
    """A migration policy (R2 / future-work policies) rejected the request."""


class MigrationPendingError(MigrationError, TransientError):
    """The migration could not complete *yet* — the state is frozen and the
    transfer is parked at the source ME awaiting a retry (Section V-D).

    Deliberately both a :class:`MigrationError` (legacy callers that catch
    the fatal family still see the failed attempt) and a
    :class:`TransientError` (retry loops know re-driving the same
    transaction can succeed).
    """

    status = SgxStatus.SGX_ERROR_BUSY


class PlanInfeasibleError(ReproError):
    """No wave schedule can satisfy the fleet constraints.

    Raised by the fleet planner (``repro.fleet``) when an intent cannot be
    turned into a :class:`~repro.fleet.model.MigrationPlan` — every candidate
    destination violates anti-affinity or capacity headroom, a per-tenant
    migration quota is exhausted mid-plan, or the per-wave caps are too tight
    to ever place a move.  Typed (rather than looping or silently dropping
    moves) so callers can distinguish "impossible under these constraints"
    from planner bugs.
    """


class PreflightError(MigrationError):
    """A fleet pre-flight check rejected a planned wave before dispatch.

    Nothing was frozen or shipped: the wave's enclaves keep serving.  The
    message names the failed check (policy compatibility, ME version
    mismatch, destination capacity, source journal mid-transaction).
    """


class SecurityError(ReproError):
    """An active-adversary condition was detected (as opposed to a protocol,
    crypto, or infrastructure failure): a cloned instance, a fenced replica
    trying to operate, the single-instance registry being unreachable when
    its verdict is required.  Grouped under one branch so policy code can
    treat "the system is under attack" differently from "the system is
    broken"."""


class CloneDetectedError(SecurityError):
    """A second live instance of an enclave identity was detected (R3).

    Raised by the single-instance registry (``repro.fleet.registry``) when a
    claim, migration-data advance, or heartbeat proves that two instances
    derived from the same persistent state are racing — the cloning-window
    attacks of Briongos et al.  The offending instance is fenced; the
    legitimate holder keeps serving.  Fatal: a fenced clone must never
    retry its way into operation."""


class FencedInstanceError(SecurityError):
    """An instance that was previously fenced as a clone attempted another
    operation.  Fatal — the fence is permanent for that instance."""


class RegistryUnavailableError(SecurityError, TransientError):
    """The single-instance registry could not be consulted and its verdict
    is required.  The operation is DENIED (deny-by-default: an unreachable
    registry must never degrade into silent acceptance of a possible
    clone), but the denial is transient — the claim was not fenced, and the
    same instance may retry once the registry is reachable again."""


class CryptoError(ReproError):
    """Low-level cryptographic failure (tag mismatch, bad key size...)."""


class StorageError(ReproError):
    """Requested blob does not exist (or cannot be operated on).

    Canonical home of the storage error (historically defined in
    :mod:`repro.cloud.storage`, which still re-exports it): the full error
    taxonomy — transient vs. fatal, wire, storage — is importable from
    :mod:`repro.errors` alone, so call sites never need to catch a bare
    ``Exception`` around migration dispatch just to cover every layer.
    """


class WireError(ReproError):
    """Malformed wire message (canonical home; :mod:`repro.wire`
    re-exports it for its historical call sites)."""


class NetworkError(TransientError):
    """Simulated network failure (unknown endpoint, dropped connection)."""

    status = SgxStatus.SGX_ERROR_SERVICE_UNAVAILABLE


class NetworkTimeoutError(NetworkError):
    """The round trip exceeded the caller's deadline.  The request may or
    may not have been delivered — retries must be idempotent."""

    status = SgxStatus.SGX_ERROR_SERVICE_TIMEOUT


class MachineCrashedError(NetworkError):
    """The peer's physical machine crashed while (or before) serving the
    request.  Transient from the sender's point of view: the machine may
    come back, or a retry may be redirected elsewhere."""

    status = SgxStatus.SGX_ERROR_SERVICE_UNAVAILABLE
