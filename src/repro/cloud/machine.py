"""A physical SGX-capable machine: CPU + platform software + storage + NIC.

Wires together everything a host contributes to the simulation: the SGX CPU
(fuse secrets), Platform Services (in the management VM), the
Quoting Enclave (EPID member key provisioned at "manufacturing"), untrusted
disk, and the network attachment.  Enclaves launched in guest VMs reach the
PSE through the Section VI-C proxy pair; enclaves in the management VM (the
Migration Enclave) talk to it directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.proxy import ProxiedPse
from repro.cloud.storage import UntrustedStorage
from repro.cloud.vm import Application, VirtualMachine, ocall_dispatcher
from repro.crypto.epid import EpidMemberKey
from repro.errors import InvalidParameterError
from repro.sgx.cpu import SgxCpu
from repro.sgx.enclave import Enclave, build_identity
from repro.sgx.identity import SigningKey
from repro.sgx.launch import LaunchControl
from repro.sgx.platform_services import PlatformServices
from repro.sgx.quote import QuotingEnclave
from repro.sgx.sdk import TrustedRuntime
from repro.sim.costs import CostMeter
from repro.sim.rng import DeterministicRng

if True:  # separate import block to avoid a circular import at type level
    from repro.cloud.network import Network


@dataclass
class PhysicalMachine:
    """One host in the data center."""

    name: str
    rng: DeterministicRng
    meter: CostMeter
    network: Network
    epid_member: EpidMemberKey
    cpu: SgxCpu = field(init=False)
    pse: PlatformServices = field(init=False)
    quoting_enclave: QuotingEnclave = field(init=False)
    storage: UntrustedStorage = field(init=False)
    management_vm: VirtualMachine = field(init=False)
    vms: list[VirtualMachine] = field(default_factory=list)
    enclaves: list[Enclave] = field(default_factory=list)
    _enclave_seq: int = 0

    def __post_init__(self) -> None:
        self.cpu = SgxCpu(self.name, self.rng.child("cpu"), self.meter)
        self.pse = PlatformServices(self.name, self.rng.child("pse"), self.meter)
        self.launch_control = LaunchControl(self.name, self.rng.child("launch"))
        self.quoting_enclave = QuotingEnclave(self.cpu, self.epid_member)
        self.storage = UntrustedStorage(self.name)
        self.management_vm = VirtualMachine(
            name=f"{self.name}-mgmt", machine=self, is_management=True
        )
        self.vms.append(self.management_vm)

    @property
    def address(self) -> str:
        return self.name

    # ------------------------------------------------------------------ VMs
    def create_vm(self, name: str, memory_bytes: int = 1 << 30) -> VirtualMachine:
        if any(vm.name == name for vm in self.vms):
            raise InvalidParameterError(f"VM {name!r} already exists on {self.name}")
        vm = VirtualMachine(name=name, machine=self, memory_bytes=memory_bytes)
        self.vms.append(vm)
        return vm

    def adopt_vm(self, vm: VirtualMachine) -> None:
        """Attach a VM arriving via live migration."""
        vm.machine = self
        self.vms.append(vm)

    def release_vm(self, vm: VirtualMachine) -> None:
        self.vms.remove(vm)

    # ------------------------------------------------------------- enclaves
    def load_enclave(
        self,
        vm: VirtualMachine,
        enclave_class: type,
        signing_key: SigningKey,
        config: bytes = b"",
        isv_prod_id: int = 0,
        isv_svn: int = 0,
    ) -> Enclave:
        """EINIT analogue: measure, check SIGSTRUCT, instantiate.

        The whole load (measurement, launch control, ``on_load``) is
        attributed to this machine's CPU for trace capture."""
        with self.meter.located(self.name):
            return self._load_enclave(
                vm, enclave_class, signing_key, config, isv_prod_id, isv_svn
            )

    def _load_enclave(
        self,
        vm: VirtualMachine,
        enclave_class: type,
        signing_key: SigningKey,
        config: bytes = b"",
        isv_prod_id: int = 0,
        isv_svn: int = 0,
    ) -> Enclave:
        if vm.machine is not self:
            raise InvalidParameterError(f"VM {vm.name} is not on machine {self.name}")
        identity = build_identity(enclave_class, signing_key, config, isv_prod_id, isv_svn)
        # Launch control: obtain + check the EINIT token before running.
        token = self.launch_control.get_token(identity)
        if not self.launch_control.verify_token(identity, token):
            raise InvalidParameterError("EINIT token rejected")
        pse_access = self.pse if vm.is_management else ProxiedPse(self.pse, self.meter)
        # Machine-local enclave ids keep RNG streams (and thus every sealed
        # blob) a pure function of the simulation seed.
        self._enclave_seq += 1
        enclave = Enclave(
            enclave_class=enclave_class,
            identity=identity,
            trusted=None,  # type: ignore[arg-type] - set right below
            meter=self.meter,
            enclave_id=f"{self.name}-enc-{self._enclave_seq}",
            machine_name=self.name,
        )
        runtime = TrustedRuntime(
            cpu=self.cpu,
            identity=identity,
            pse=pse_access,
            quoting_enclave=self.quoting_enclave,
            rng=self.rng.child(f"enclave-{enclave.enclave_id}"),
            ocall_dispatch=ocall_dispatcher(enclave),
        )
        # This is the EINIT analogue itself: the loader creates the trusted
        # instance exactly once, before any ECALL can run.  No enclave state
        # exists yet to leak, so the boundary rule does not apply here.
        enclave.trusted = enclave_class(runtime)  # repro: ignore[SEC002]
        enclave.trusted.on_load()  # repro: ignore[SEC002]
        self.enclaves.append(enclave)
        return enclave

    def on_enclave_destroyed(self, enclave: Enclave) -> None:
        if enclave in self.enclaves:
            self.enclaves.remove(enclave)

    # --------------------------------------------------------- power events
    def hibernate(self) -> None:
        """Hibernate/shutdown: every enclave dies.

        Platform Services counters *survive* (they live in ME flash), as do
        untrusted disk contents — exactly the asymmetry that forces enclaves
        to keep persistent state.  An orderly shutdown flushes the disk's
        write-back buffer on the way down.
        """
        for vm in self.vms:
            for app in vm.applications:
                app.crash()
        self.storage.sync()

    def crash(self) -> None:
        """Abrupt power failure, the fault injector's favourite weapon.

        Like :meth:`hibernate` every enclave dies, but
        additionally every network endpoint hosted here vanishes — peers see
        connection failures until services are reinstalled.  PSE counters
        (ME flash) survive; the untrusted disk keeps only what was synced —
        unsynced writes are discarded and a torn-marked in-flight write
        lands partially (see :meth:`UntrustedStorage.crash`).  Recovery
        remains possible from the durable image.
        """
        for vm in self.vms:
            for app in vm.applications:
                app.crash()
        self.storage.crash()
        self.network.unregister_machine(self.name)

    # -------------------------------------------------------------- helpers
    def applications(self) -> list[Application]:
        return [app for vm in self.vms for app in vm.applications]
