"""The enclave runtime: trusted classes, ECALL dispatch, lifecycle.

Enclave developers write a subclass of :class:`EnclaveBase`; methods exposed
to the untrusted application are marked with the :func:`ecall` decorator.
The host side holds an :class:`Enclave` handle through which all calls flow,
mirroring the SGX programming model:

* execution enters only through declared ECALLs;
* the enclave's Python instance state is its protected memory — the host
  can destroy the enclave (losing that state irrecoverably, per the SGX
  Developer Guide) but never reach into it;
* the enclave reaches back out only through OCALLs registered by the host.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.errors import EnclaveLostError, InvalidParameterError, InvalidStateError
from repro.sgx.identity import EnclaveIdentity, SigningKey
from repro.sgx.measurement import measure_source

_ECALL_ATTR = "_repro_is_ecall"
_enclave_counter = itertools.count(1)


def ecall(func: Callable) -> Callable:
    """Mark a trusted method as an ECALL entry point."""
    setattr(func, _ECALL_ATTR, True)
    return func


class EnclaveBase:
    """Base class for trusted enclave code.

    ``MEASURED_LIBRARIES`` lists library classes whose source is folded into
    MRENCLAVE (the Migration Library is measured with its host enclave).
    """

    MEASURED_LIBRARIES: tuple[type, ...] = ()

    def __init__(self, sdk: "Any"):
        self.sdk = sdk

    def on_load(self) -> None:
        """Hook invoked once after the enclave is initialized (EINIT)."""


class EnclaveState(enum.Enum):
    ALIVE = "ALIVE"
    DESTROYED = "DESTROYED"


@dataclass
class Enclave:
    """Host-side enclave handle: the only gateway into trusted code."""

    enclave_class: type
    identity: EnclaveIdentity
    trusted: EnclaveBase
    meter: Any = None
    enclave_id: str = field(default_factory=lambda: f"enc-{next(_enclave_counter)}")
    state: EnclaveState = EnclaveState.ALIVE
    ocall_handlers: dict[str, Callable] = field(default_factory=dict)
    #: Hosting machine, for CPU attribution when a trace recorder is active
    #: (set by :meth:`PhysicalMachine.load_enclave`; ``None`` for enclaves
    #: built outside a machine, e.g. unit-test fixtures).
    machine_name: str | None = None

    def register_ocall(self, name: str, handler: Callable) -> None:
        """Host registers an untrusted function the enclave may OCALL."""
        self.ocall_handlers[name] = handler

    def ecall(self, name: str, *args: Any, **kwargs: Any) -> Any:
        """Enter the enclave through a declared ECALL."""
        if self.state is not EnclaveState.ALIVE:
            raise EnclaveLostError(f"enclave {self.enclave_id} has been destroyed")
        method = getattr(self.trusted, name, None)
        if method is None or not getattr(method, _ECALL_ATTR, False):
            raise InvalidParameterError(f"{name!r} is not a declared ECALL")
        if self.meter is None:
            return method(*args, **kwargs)
        # Everything this ECALL charges belongs to the hosting machine's CPU
        # in a discrete-event replay.
        with self.meter.located(self.machine_name):
            self.meter.charge("ecall", self.meter.model.ecall)
            return method(*args, **kwargs)

    def destroy(self) -> None:
        """Tear the enclave down; its in-memory state is gone forever.

        Per the SGX Developer Guide this happens whenever the application
        closes the enclave, the application exits or crashes, or the machine
        hibernates or shuts down.
        """
        if self.state is EnclaveState.DESTROYED:
            return
        self.state = EnclaveState.DESTROYED
        # Drop the trusted instance: all enclave data memory is lost.
        self.trusted = None  # type: ignore[assignment]

    @property
    def alive(self) -> bool:
        return self.state is EnclaveState.ALIVE


def build_identity(
    enclave_class: type,
    signing_key: SigningKey,
    config: bytes = b"",
    isv_prod_id: int = 0,
    isv_svn: int = 0,
) -> EnclaveIdentity:
    """Measure an enclave class and bind it to its signer (load-time check).

    The MRENCLAVE is deterministic in the class source + config, so loading
    the same enclave build on two machines yields the same identity — the
    property the destination-matching check in the Migration Enclave needs.
    """
    mrenclave = measure_source(enclave_class, config)
    sigstruct = signing_key.sign_sigstruct(mrenclave, isv_prod_id, isv_svn)
    if not sigstruct.verify():
        raise InvalidStateError("SIGSTRUCT signature invalid")
    return EnclaveIdentity(
        mrenclave=mrenclave,
        mrsigner=sigstruct.mrsigner,
        isv_prod_id=isv_prod_id,
        isv_svn=isv_svn,
    )
