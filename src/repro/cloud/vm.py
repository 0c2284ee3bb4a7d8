"""Virtual machines and the untrusted applications that run in them.

A :class:`VirtualMachine` belongs to one physical machine at a time (live
migration re-homes it).  An :class:`Application` is the *untrusted* part of
an SGX application: it launches enclaves, stores their sealed blobs, relays
their network traffic, and — crucially for the paper's attacks — can crash,
terminate, or restart at any time, destroying its enclaves' volatile state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.errors import InvalidStateError
from repro.sgx.enclave import Enclave
from repro.sgx.identity import SigningKey

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cloud.machine import PhysicalMachine


@dataclass
class VirtualMachine:
    """A guest (or management) VM on a physical machine."""

    name: str
    machine: "PhysicalMachine"
    memory_bytes: int = 1 << 30  # 1 GiB default; drives migration time
    is_management: bool = False
    applications: list["Application"] = field(default_factory=list)

    def launch_application(self, name: str) -> "Application":
        app = Application(name=name, vm=self)
        self.applications.append(app)
        return app

    def shutdown(self) -> None:
        """Guest shutdown destroys every enclave in the VM."""
        for app in self.applications:
            app.terminate()


@dataclass
class Application:
    """The untrusted host process of one or more enclaves."""

    name: str
    vm: VirtualMachine
    enclaves: list[Enclave] = field(default_factory=list)
    running: bool = True

    @property
    def machine(self) -> "PhysicalMachine":
        return self.vm.machine

    def launch_enclave(
        self,
        enclave_class: type,
        signing_key: SigningKey,
        config: bytes = b"",
        isv_prod_id: int = 0,
        isv_svn: int = 0,
    ) -> Enclave:
        """Create and initialize an enclave inside this application."""
        if not self.running:
            raise InvalidStateError(f"application {self.name} is not running")
        enclave = self.machine.load_enclave(
            self.vm,
            enclave_class,
            signing_key,
            config=config,
            isv_prod_id=isv_prod_id,
            isv_svn=isv_svn,
        )
        self.enclaves.append(enclave)
        return enclave

    # ------------------------------------------------------- untrusted I/O
    def store(self, path: str, data: bytes) -> None:
        """Persist a blob (e.g. a sealed buffer) on the machine's disk,
        durably: the write is fsynced before this returns, so a machine
        crash never silently discards it (it can still be torn or dropped
        by an injected disk fault — that is the fault model's job)."""
        blob_path = f"{self.name}/{path}"
        self.machine.storage.write(blob_path, data)
        self.machine.storage.sync(blob_path)

    def store_atomic(self, path: str, data: bytes) -> None:
        """Durably *replace* a blob: write a temp, fsync it, rename over the
        target.  At every crash point the target holds either the complete
        old value or the complete new one — the discipline every
        migration-critical single-file artifact (library state, journals)
        must follow under the disk fault model."""
        blob_path = f"{self.name}/{path}"
        tmp_path = f"{blob_path}.tmp"
        self.machine.storage.write(tmp_path, data)
        self.machine.storage.sync(tmp_path)
        self.machine.storage.rename(tmp_path, blob_path)

    def load(self, path: str) -> bytes:
        return self.machine.storage.read(f"{self.name}/{path}")

    def has_stored(self, path: str) -> bool:
        return self.machine.storage.exists(f"{self.name}/{path}")

    def send(self, dst_address, payload: bytes, *, timeout: float | None = None) -> bytes:
        """Send over the (untrusted) data-center network."""
        return self.machine.network.send(
            self.machine.address, dst_address, payload, timeout=timeout
        )

    # ----------------------------------------------------------- lifecycle
    def _destroy_enclaves(self) -> None:
        for enclave in self.enclaves:
            self.machine.on_enclave_destroyed(enclave)
            enclave.destroy()

    def crash(self) -> None:
        """Abrupt process death: enclaves are lost without warning."""
        self._destroy_enclaves()
        self.running = False

    def terminate(self) -> None:
        """Graceful exit. (Well-designed enclaves have persisted their
        state by now; the paper assumes they are signalled first.)"""
        self._destroy_enclaves()
        self.running = False

    def restart(self) -> None:
        """Start the application process again (fresh enclave handles)."""
        self.enclaves = [e for e in self.enclaves if e.alive]
        self.running = True


def ocall_dispatcher(enclave: Enclave) -> Any:
    """Build the OCALL dispatch closure the TrustedRuntime calls out through."""

    def dispatch(name: str, args: tuple, kwargs: dict) -> Any:
        handler = enclave.ocall_handlers.get(name)
        if handler is None:
            raise InvalidStateError(f"no OCALL handler registered for {name!r}")
        return handler(*args, **kwargs)

    return dispatch
