"""The simulated SGX CPU: fuse secrets, EGETKEY, EREPORT.

Each physical machine owns one :class:`SgxCpu` with machine-unique fuse
secrets.  Every key the platform hands to enclaves is derived from those
fuses plus the requesting enclave's identity, which gives the two properties
the paper's whole problem statement rests on:

* **sealing keys are machine-bound** — the same enclave on another machine
  derives a different key, so naively migrated sealed data is unreadable;
* **report keys are machine-bound** — a local-attestation REPORT can only be
  verified by an enclave on the same CPU, which is what makes local
  attestation a same-machine proof.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.crypto.cmac import AesCmac
from repro.crypto.kdf import derive_key_cmac
from repro.errors import InvalidParameterError, SgxError, SgxStatus
from repro.sgx.identity import EnclaveIdentity, KeyPolicy
from repro.sgx.report import REPORT_DATA_SIZE, Report, TargetInfo
from repro.sim.costs import CostMeter
from repro.sim.rng import DeterministicRng


class KeyName(enum.Enum):
    """EGETKEY key classes."""

    SEAL = "SEAL_KEY"
    REPORT = "REPORT_KEY"
    EINIT_TOKEN = "EINIT_TOKEN_KEY"
    PROVISION = "PROVISION_KEY"


@dataclass(frozen=True)
class KeyRequest:
    """The EGETKEY request structure (subset)."""

    key_name: KeyName
    key_policy: KeyPolicy = KeyPolicy.MRENCLAVE
    key_id: bytes = b"\x00" * 16
    isv_svn: int = 0

    def __post_init__(self) -> None:
        if len(self.key_id) != 16:
            raise InvalidParameterError("key_id must be 16 bytes")


@dataclass
class SgxCpu:
    """One physical SGX-capable CPU package."""

    machine_id: str
    rng: DeterministicRng
    meter: CostMeter | None = None
    cpusvn: bytes = b"\x01" + b"\x00" * 15
    _seal_fuse: bytes = field(init=False, repr=False)
    _report_fuse: bytes = field(init=False, repr=False)
    _report_key_id: bytes = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # Machine-unique fuse secrets burnt in "at manufacturing time".
        fuse_rng = self.rng.child(f"cpu-fuses-{self.machine_id}")
        self._seal_fuse = fuse_rng.random_bytes(16)
        self._report_fuse = fuse_rng.random_bytes(16)
        # A per-boot constant, as in SGX: every REPORT carries the same id.
        self._report_key_id = self.rng.child("report-key-id").random_bytes(16)

    # ------------------------------------------------------------- EGETKEY
    def egetkey(self, identity: EnclaveIdentity, request: KeyRequest) -> bytes:
        """Derive a 128-bit key for the calling enclave.

        The derivation context binds the machine (via the fuse), the key
        class, the selected identity (MRENCLAVE or MRSIGNER + product id),
        the SVNs, and the caller-chosen ``key_id`` (so an enclave can derive
        many distinct sealing keys).
        """
        if request.isv_svn > identity.isv_svn:
            # An enclave may derive keys for its own or *older* SVNs only.
            raise SgxError(status=SgxStatus.SGX_ERROR_INVALID_ISVSVN)
        if self.meter is not None:
            self.meter.charge("egetkey", self.meter.model.egetkey)
        if request.key_policy is KeyPolicy.MRENCLAVE:
            identity_part = b"ENC|" + identity.mrenclave
        else:
            identity_part = (
                b"SGN|" + identity.mrsigner + identity.isv_prod_id.to_bytes(2, "big")
            )
        context = (
            identity_part
            + request.key_id
            + request.isv_svn.to_bytes(2, "big")
            + self.cpusvn
            + identity.attributes.to_bytes()
        )
        return derive_key_cmac(self._seal_fuse, request.key_name.value.encode(), context)

    # ------------------------------------------------------------- EREPORT
    def _report_key(self, target_mrenclave: bytes) -> bytes:
        return derive_key_cmac(self._report_fuse, b"REPORT_KEY", target_mrenclave)

    def ereport(
        self,
        creator_identity: EnclaveIdentity,
        target_info: TargetInfo,
        report_data: bytes,
    ) -> Report:
        """Create a report about ``creator_identity`` for ``target_info``.

        The MAC key depends on the *target's* MRENCLAVE and this CPU's fuse,
        so only the target enclave on this same machine can verify it.
        """
        if len(report_data) != REPORT_DATA_SIZE:
            raise InvalidParameterError(
                f"report data must be exactly {REPORT_DATA_SIZE} bytes (use pad_report_data)"
            )
        if self.meter is not None:
            self.meter.charge("ereport", self.meter.model.ereport)
        report = Report(
            identity=creator_identity,
            report_data=report_data,
            target_mrenclave=target_info.mrenclave,
            cpusvn=self.cpusvn,
            key_id=self._report_key_id,
            mac=b"",
        )
        mac = AesCmac(self._report_key(target_info.mrenclave)).mac(report.body_bytes())
        return Report(
            identity=report.identity,
            report_data=report.report_data,
            target_mrenclave=report.target_mrenclave,
            cpusvn=report.cpusvn,
            key_id=report.key_id,
            mac=mac,
        )

    def verify_report(self, verifier_identity: EnclaveIdentity, report: Report) -> bool:
        """Verify a report's MAC as the target enclave (EGETKEY(REPORT))."""
        if report.target_mrenclave != verifier_identity.mrenclave:
            return False
        key = self._report_key(verifier_identity.mrenclave)
        return AesCmac(key).verify(report.body_bytes(), report.mac)
