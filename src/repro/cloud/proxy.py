"""PSE access proxies (Section VI-C of the paper).

Under SGX virtualization, Platform Services run in the management VM (the
hardware the PSE needs is assigned to that VM), while application enclaves
live in guest VMs.  The SGX SDK talks to the PSE over a Unix socket, so the
paper inserts **two proxies**: one in the guest VM exposing the Unix socket
and forwarding over TCP, and one in the management VM receiving TCP and
forwarding to the real PSE socket.

The original channel was already readable by the untrusted OS, so proxying
it does not weaken security — we model that by charging the extra hop's
latency while performing the same (unprotected) PSE transaction.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ServiceUnavailableError, SgxStatus
from repro.sgx.identity import EnclaveIdentity
from repro.sgx.platform_services import CounterUuid, PlatformServices
from repro.sim.costs import CostMeter


@dataclass
class ProxiedPse:
    """Guest-VM view of the PSE: same interface, one extra hop per call.

    Implements the :class:`~repro.sgx.sdk.PseAccess` protocol, so enclaves
    cannot tell (apart from latency) whether their PSE link is proxied.
    """

    pse: PlatformServices
    meter: CostMeter
    connected: bool = True

    def _hop(self) -> None:
        if not self.connected:
            raise ServiceUnavailableError("PSE proxy connection down")
        # guest Unix socket -> guest proxy -> TCP -> management proxy -> PSE
        self.meter.charge("pse_proxy_hop", self.meter.model.net_local_rtt)

    def create_counter(self, identity: EnclaveIdentity) -> tuple[CounterUuid, int]:
        self._hop()
        return self.pse.create_counter(identity)

    def read_counter(self, identity: EnclaveIdentity, uuid: CounterUuid) -> int:
        self._hop()
        return self.pse.read_counter(identity, uuid)

    def increment_counter(self, identity: EnclaveIdentity, uuid: CounterUuid) -> int:
        self._hop()
        return self.pse.increment_counter(identity, uuid)

    def destroy_counter(self, identity: EnclaveIdentity, uuid: CounterUuid) -> SgxStatus:
        self._hop()
        return self.pse.destroy_counter(identity, uuid)
