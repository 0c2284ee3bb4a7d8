"""The simulated data-center network.

A synchronous request/response fabric: components register named endpoints
(e.g. ``machine-b/me`` for a Migration Enclave's service port) and peers
send them byte payloads.  The network itself is **untrusted** — the
adversary can observe, modify, or drop any message — so every security
property must come from the attested channels layered on top.

Endpoints are named ``machine/service``.  The :class:`Endpoint` helper and
the service-name constants below replace hand-pasted f-strings at call
sites; everything that accepts an address accepts either form.

Timing: each exchange charges one RTT (local or cross-host) plus the
bandwidth-proportional transfer time of both payloads.  A caller-supplied
``timeout`` bounds the *charged* round-trip time: if the exchange took
longer in simulated time than the deadline allows, the sender sees
:class:`NetworkTimeoutError` — note the request may still have been
delivered and processed (at-least-once semantics), so retried operations
must be idempotent.

Interception: the one seam on the wire is ``fault_injector``.  A
:class:`repro.faults.FaultInjector` attached there observes every request
and response with full addressing metadata and can drop, delay, duplicate,
corrupt or (through a hook rule) rewrite messages, or crash machines, per a
deterministic plan; adversary tests use a hook rule that fires on every leg.

Concurrency: handler execution is *attributed* to the destination machine's
CPU, so when a :class:`~repro.sim.scheduler.TraceRecorder` is attached to
the meter, a later discrete-event replay can let concurrent exchanges
contend for CPUs instead of summing serially; RTT and transfer time replay
as latency.  Without a recorder nothing reads the attribution and this path
is byte-identical to the original synchronous fabric.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.errors import NetworkError, NetworkTimeoutError, ReproError
from repro.sim.costs import CostMeter

if TYPE_CHECKING:
    from repro.faults.injector import FaultInjector

Handler = Callable[[bytes, str], bytes]

# Well-known service names (the part after the "/" in an endpoint).
ME_SERVICE = "me"  # per-machine Migration Enclave service port
ROTE_SERVICE = "rote"  # ROTE-style distributed counter service
GU_SERVICE = "gu"  # Gu et al. live-migration baseline service


@dataclass(frozen=True)
class Endpoint:
    """A ``machine/service`` network address, structured.

    ``str(Endpoint("machine-b", ME_SERVICE))`` == ``"machine-b/me"``; use
    :meth:`parse` for the reverse.  Frozen so endpoints are hashable and
    usable as dict keys next to plain strings.
    """

    machine: str
    service: str

    def __str__(self) -> str:
        return f"{self.machine}/{self.service}"

    @classmethod
    def parse(cls, address: str | "Endpoint") -> "Endpoint":
        if isinstance(address, Endpoint):
            return address
        machine, _, service = address.partition("/")
        return cls(machine, service)

    @classmethod
    def me(cls, machine: str) -> "Endpoint":
        """The Migration Enclave service port of ``machine``."""
        return cls(machine, ME_SERVICE)


def _machine_of(address: str) -> str:
    return address.split("/", 1)[0]


@dataclass
class Network:
    """Endpoint registry + message fabric for one data center."""

    meter: CostMeter
    _endpoints: dict[str, Handler] = field(default_factory=dict)
    fault_injector: "FaultInjector | None" = None
    messages_sent: int = 0
    bytes_sent: int = 0

    def register(
        self, address: str | Endpoint, handler: Handler, *, replace: bool = False
    ) -> None:
        """Bind ``address`` (``machine/service``) to a request handler.

        ``replace=True`` rebinds an existing endpoint (e.g. a restarted
        service re-claiming its port).
        """
        address = str(address)
        if address in self._endpoints and not replace:
            raise NetworkError(f"endpoint {address!r} already registered")
        self._endpoints[address] = handler

    def unregister(self, address: str | Endpoint) -> None:
        self._endpoints.pop(str(address), None)

    def unregister_machine(self, machine: str) -> None:
        """Drop every endpoint hosted on ``machine`` (the machine crashed)."""
        for address in [a for a in self._endpoints if _machine_of(a) == machine]:
            del self._endpoints[address]

    def _charge(self, src: str, dst: str, num_bytes: int) -> None:
        model = self.meter.model
        rtt = model.net_local_rtt if _machine_of(src) == _machine_of(dst) else model.net_dc_rtt
        self.meter.charge("net_rtt", rtt)
        self.meter.charge_exact("net_transfer", model.transfer_time(num_bytes))

    def _apply_faults(self, src: str, dst: str, payload: bytes, direction: str) -> bytes:
        """Run the fault injector (if any) over one message leg."""
        if self.fault_injector is None:
            return payload
        faulted = self.fault_injector.on_message(src, dst, payload, direction)
        if faulted is None:
            raise NetworkError(f"message {src} -> {dst} dropped by fault injector")
        return faulted

    def send(
        self, src: str, dst: str | Endpoint, payload: bytes, *, timeout: float | None = None
    ) -> bytes:
        """Request/response exchange; returns the handler's response.

        Raises :class:`NetworkError` for unknown endpoints or messages
        dropped by the fault injector — the sender sees a connection
        failure, exactly as a real untrusted network can induce.  With
        ``timeout``, raises :class:`NetworkTimeoutError` when the simulated
        round trip exceeds the deadline; the request may still have been
        processed.
        """
        dst = str(dst)
        started = self.meter.now
        payload = self._apply_faults(src, dst, payload, "request")
        handler = self._endpoints.get(dst)
        if handler is None:
            raise NetworkError(f"no endpoint {dst!r}")
        self.messages_sent += 1
        self.bytes_sent += len(payload)
        self._charge(src, dst, len(payload))
        with self.meter.located(_machine_of(dst)):
            response = handler(payload, src)
            if self.fault_injector is not None and self.fault_injector.wants_duplicate(
                src, dst, "request"
            ):
                # At-least-once delivery: the handler runs again on the same
                # payload; the sender only ever sees the first response.  A
                # failure of the duplicate stays on the receiver's side.
                # The duplicate leg is real chaos traffic, so it counts in
                # the message/byte odometers like any other delivery.
                self.messages_sent += 1
                self.bytes_sent += len(payload)
                try:
                    handler(payload, src)
                except ReproError:
                    # A rejected duplicate (replayed txn, desynced channel) is
                    # the idempotency machinery working; anything outside the
                    # typed taxonomy is a bug and must surface, not vanish.
                    pass
        response = self._apply_faults(dst, src, response, "response")
        self.bytes_sent += len(response)
        self.meter.charge_exact(
            "net_transfer", self.meter.model.transfer_time(len(response))
        )
        if timeout is not None and self.meter.now - started > timeout:
            raise NetworkTimeoutError(
                f"{src} -> {dst} round trip exceeded timeout of {timeout}s"
            )
        return response

    def endpoints(self) -> list[str]:
        return sorted(self._endpoints)
