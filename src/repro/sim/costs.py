"""Cost model calibrated to the magnitudes reported in the paper.

Every constant is the *mean* virtual-time cost of one primitive operation.
Components charge these costs to their machine's :class:`~repro.sim.clock.
VirtualClock` as they execute, with small multiplicative Gaussian noise so
that confidence intervals and t-tests behave like real measurements.

Calibration sources (Section VII-B of the paper):

* Monotonic counter ECALLs take 0.05–0.35 s, dominated by the round trip to
  the Platform Services / Management Engine, which is also rate-limited.
* Sealing ECALLs take 0.2–0.8 ms depending on payload size; the baseline
  pays an extra ``EGETKEY`` per call while the Migration Library reuses the
  cached MSK (which is why migratable sealing is *slightly faster*).
* One enclave migration costs 0.47 ± 0.035 s on top of VM migration, which
  itself takes "in the order of seconds".
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any

from repro.errors import InvalidStateError
from repro.sim.clock import VirtualClock
from repro.sim.rng import DeterministicRng


@dataclass
class CostModel:
    """Mean costs (seconds) of simulated primitives plus a noise level.

    ``rel_noise`` is the relative standard deviation applied to every charge;
    ``abs_noise`` is an additive jitter floor so that even near-zero costs
    show measurement spread, as a real timer would.
    """

    # --- ECALL / OCALL transition overhead -------------------------------
    ecall: float = 8.0e-6
    ocall: float = 6.0e-6

    # --- CPU crypto primitives -------------------------------------------
    egetkey: float = 1.2e-5          # sealing-key derivation instruction
    ereport: float = 3.0e-5          # local-attestation report generation
    aes_gcm_base: float = 6.0e-5     # fixed AEAD setup (IV, tag, J0)
    aes_gcm_per_byte: float = 4.0e-9  # bulk AES-NI-style throughput
    dh_keygen: float = 3.0e-4        # modular exponentiation
    dh_shared: float = 3.0e-4

    # --- Platform Services (PSE / Management Engine) round trips ---------
    # Rate-limited firmware transactions; by far the dominant costs.
    pse_create_counter: float = 0.239
    pse_increment_counter: float = 0.1445
    pse_read_counter: float = 0.0595
    pse_destroy_counter: float = 0.308

    # --- Migration Library internal bookkeeping ---------------------------
    # Wrapper work on top of the raw PSE call: id translation, the offset
    # addition, overflow checks, and (for create/destroy) resealing the
    # library's internal persistent buffer.  Calibrated so the increment
    # wrapper lands at the paper's reported 12.3 % overhead and the read
    # wrapper stays inside measurement noise (paper: p ~= 0.12).
    lib_counter_increment_wrap: float = 0.0178
    lib_counter_read_wrap: float = 1.5e-5
    lib_counter_array_ops: float = 6.0e-3

    # --- Quoting / remote attestation -------------------------------------
    quote_generation: float = 1.67e-1  # local attestation to QE + EPID sign
    ias_verification: float = 6.5e-2   # remote round trip to the IAS

    # --- Network ----------------------------------------------------------
    net_local_rtt: float = 2.0e-4      # same-host (VM<->management VM)
    net_dc_rtt: float = 5.0e-4         # cross-host inside the data center
    net_bandwidth_bytes_per_s: float = 1.25e9   # 10 Gbit/s data-center links

    # --- VM live migration -----------------------------------------------
    vm_migration_fixed: float = 0.35   # handshake, device state, switchover
    vm_dirty_round_fraction: float = 0.08  # pages re-dirtied per pre-copy round

    # --- noise ------------------------------------------------------------
    rel_noise: float = 0.018
    abs_noise: float = 2.5e-6

    def noisy(self, mean_cost: float, rng: DeterministicRng) -> float:
        """Sample an observed duration for an operation of ``mean_cost``."""
        if mean_cost < 0:
            raise ValueError(f"negative cost: {mean_cost}")
        noise = rng.gauss(0.0, mean_cost * self.rel_noise + self.abs_noise)
        return max(0.0, mean_cost + noise)

    def transfer_time(self, num_bytes: int) -> float:
        """Time to push ``num_bytes`` over a data-center link."""
        return num_bytes / self.net_bandwidth_bytes_per_s


@dataclass
class CostMeter:
    """Binds a :class:`CostModel` to a clock and RNG and charges costs.

    One meter exists per data center, so all components share a clock and
    experiments stay deterministic under a seed.

    Trace capture (the discrete-event concurrency path): attaching a
    recorder via :meth:`recording` diverts every charge into it instead of
    the clock — the protocol code runs unchanged (same calls, same RNG
    draws) while the clock stays frozen; the recorded trace is later
    replayed by :class:`~repro.sim.scheduler.Scheduler` with CPU
    contention, and only then does the clock move.  The :meth:`located`
    context attributes charges to a machine's CPU for that replay.  The
    components enter it on every path; with no recorder attached nothing
    reads the attribution, which is how every sequential code path stays
    byte-identical.
    """

    model: CostModel
    clock: VirtualClock
    rng: DeterministicRng
    #: Trace sink (``record(label, seconds, location)``); ``None`` = normal
    #: operation, charges advance the clock directly.
    recorder: Any = None
    #: Machine currently accountable for CPU charges (read only while
    #: recording).
    location: str | None = None
    #: Seconds charged into the attached recorder so far (recording only).
    recorded: float = field(default=0.0, init=False)

    @property
    def now(self) -> float:
        """Virtual time as the running protocol sees it: the clock plus what
        the attached recorder captured while the clock stands still.  Every
        elapsed-time reader (timeouts, cost snapshots, durations) uses this,
        so recorded runs measure the same intervals as sequential ones."""
        return self.clock.now + self.recorded

    def charge(self, label: str, mean_cost: float) -> float:
        """Charge a noisy sample of ``mean_cost``; returns the charged time."""
        cost = self.model.noisy(mean_cost, self.rng)
        self._commit(label, cost)
        return cost

    def charge_exact(self, label: str, cost: float) -> float:
        """Charge an exact (noise-free) cost, e.g. deterministic transfer."""
        self._commit(label, cost)
        return cost

    def _commit(self, label: str, cost: float) -> None:
        if self.recorder is not None:
            self.recorder.record(label, cost, self.location)
            self.recorded += cost
        else:
            self.clock.advance(cost)

    # ----------------------------------------------------- trace attribution
    @contextmanager
    def recording(self, recorder: Any):
        """Divert charges into ``recorder`` for the duration of the block.

        Not reentrant: one trace is recorded at a time (concurrency comes
        from replaying many traces, not from nesting recordings).
        """
        if self.recorder is not None:
            raise InvalidStateError("a trace recording is already in progress")
        self.recorder = recorder
        self.recorded = 0.0
        try:
            yield recorder
        finally:
            self.recorder = None
            self.recorded = 0.0
            self.location = None

    @contextmanager
    def located(self, machine: str | None):
        """Attribute CPU charges in the block to ``machine`` (``None`` keeps
        the enclosing attribution)."""
        previous = self.location
        self.location = machine or previous
        try:
            yield
        finally:
            self.location = previous
