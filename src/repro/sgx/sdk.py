"""The trusted SDK facade enclave code programs against.

A :class:`TrustedRuntime` is handed to every enclave instance as ``self.sdk``.
It exposes the SGX SDK surface the paper's system uses — sealing, monotonic
counters (through whatever PSE access path the machine wired up, possibly a
proxied one per Section VI-C), local-attestation reports, quotes, OCALLs —
while keeping the trusted code decoupled from the cloud substrate.
"""

from __future__ import annotations

from typing import Any, Callable, Protocol

from repro.errors import InvalidParameterError, SgxStatus
from repro.sgx.cpu import SgxCpu
from repro.sgx.identity import EnclaveIdentity, KeyPolicy
from repro.sgx.platform_services import CounterUuid
from repro.sgx.quote import Quote, QuotingEnclave
from repro.sgx.report import Report, TargetInfo, pad_report_data
from repro.sgx.sealing import SealedData, seal_data, unseal_data
from repro.sim.rng import DeterministicRng


class PseAccess(Protocol):
    """The monotonic-counter surface (direct PSE or a proxied session)."""

    def create_counter(self, identity: EnclaveIdentity) -> tuple[CounterUuid, int]: ...

    def read_counter(self, identity: EnclaveIdentity, uuid: CounterUuid) -> int: ...

    def increment_counter(self, identity: EnclaveIdentity, uuid: CounterUuid) -> int: ...

    def destroy_counter(self, identity: EnclaveIdentity, uuid: CounterUuid) -> SgxStatus: ...


class TrustedRuntime:
    """SGX SDK services bound to one enclave instance on one machine."""

    def __init__(
        self,
        cpu: SgxCpu,
        identity: EnclaveIdentity,
        pse: PseAccess,
        quoting_enclave: QuotingEnclave | None,
        rng: DeterministicRng,
        ocall_dispatch: Callable[[str, tuple, dict], Any] | None = None,
    ):
        self._cpu = cpu
        self.identity = identity
        self._pse = pse
        self._qe = quoting_enclave
        self._rng = rng
        # One stream for every native seal of this instance: a fresh
        # ``child("seal")`` per call would restart it and repeat the first
        # key id and IV, reusing one AES-GCM key and nonce.
        self._seal_rng = rng.child("seal")
        self._ocall_dispatch = ocall_dispatch

    # -------------------------------------------------------------- sealing
    def seal_data(
        self,
        plaintext: bytes,
        additional_mac_text: bytes = b"",
        key_policy: KeyPolicy = KeyPolicy.MRSIGNER,
    ) -> bytes:
        """``sgx_seal_data``: returns the serialized sealed blob."""
        sealed = seal_data(
            self._cpu,
            self.identity,
            self._seal_rng,
            plaintext,
            additional_mac_text,
            key_policy,
        )
        return sealed.to_bytes()

    def unseal_data(self, sealed_blob: bytes) -> tuple[bytes, bytes]:
        """``sgx_unseal_data``: returns ``(plaintext, additional_mac_text)``."""
        return unseal_data(self._cpu, self.identity, SealedData.from_bytes(sealed_blob))

    # ------------------------------------------------------------- counters
    def create_monotonic_counter(self) -> tuple[CounterUuid, int]:
        return self._pse.create_counter(self.identity)

    def read_monotonic_counter(self, uuid: CounterUuid) -> int:
        return self._pse.read_counter(self.identity, uuid)

    def increment_monotonic_counter(self, uuid: CounterUuid) -> int:
        return self._pse.increment_counter(self.identity, uuid)

    def destroy_monotonic_counter(self, uuid: CounterUuid) -> SgxStatus:
        return self._pse.destroy_counter(self.identity, uuid)

    # ---------------------------------------------------------- attestation
    def create_report(self, target: TargetInfo, report_data: bytes = b"") -> Report:
        """EREPORT for a target enclave on this machine."""
        return self._cpu.ereport(self.identity, target, pad_report_data(report_data))

    def verify_report(self, report: Report) -> bool:
        """Verify a report directed at *this* enclave."""
        return self._cpu.verify_report(self.identity, report)

    def get_quote(self, report_data: bytes = b"", basename: bytes = b"") -> Quote:
        """Local-attest to the Quoting Enclave and obtain an EPID quote."""
        if self._qe is None:
            raise InvalidParameterError("no Quoting Enclave available on this platform")
        report = self._cpu.ereport(
            self.identity, self._qe.target_info(), pad_report_data(report_data)
        )
        return self._qe.generate_quote(report, basename)

    # ---------------------------------------------------------------- misc
    def random_bytes(self, n: int) -> bytes:
        """``sgx_read_rand`` analogue."""
        return self._rng.random_bytes(n)

    def ocall(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Call out to an untrusted host function. The result is untrusted."""
        if self._ocall_dispatch is None:
            raise InvalidParameterError(f"no OCALL handler registered for {name!r}")
        if self._cpu.meter is not None:
            self._cpu.meter.charge("ocall", self._cpu.meter.model.ocall)
        return self._ocall_dispatch(name, args, kwargs)
