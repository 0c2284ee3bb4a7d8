"""Simulated Intel SGX platform: CPU, enclaves, sealing, counters, quotes."""

from repro.sgx.cpu import KeyName, KeyRequest, SgxCpu
from repro.sgx.enclave import Enclave, EnclaveBase, EnclaveState, build_identity, ecall
from repro.sgx.identity import Attributes, EnclaveIdentity, KeyPolicy, SigningKey, Sigstruct
from repro.sgx.measurement import EnclavePage, PageProperties, measure_pages, measure_source
from repro.sgx.platform_services import (
    MAX_COUNTERS_PER_ENCLAVE,
    CounterUuid,
    PlatformServices,
)
from repro.sgx.quote import Quote, QuotingEnclave
from repro.sgx.report import Report, TargetInfo, pad_report_data
from repro.sgx.sdk import TrustedRuntime
from repro.sgx.sealing import SealedData, seal_data, unseal_data

__all__ = [
    "KeyName",
    "KeyRequest",
    "SgxCpu",
    "Enclave",
    "EnclaveBase",
    "EnclaveState",
    "build_identity",
    "ecall",
    "Attributes",
    "EnclaveIdentity",
    "KeyPolicy",
    "SigningKey",
    "Sigstruct",
    "EnclavePage",
    "PageProperties",
    "measure_pages",
    "measure_source",
    "MAX_COUNTERS_PER_ENCLAVE",
    "CounterUuid",
    "PlatformServices",
    "Quote",
    "QuotingEnclave",
    "Report",
    "TargetInfo",
    "pad_report_data",
    "TrustedRuntime",
    "SealedData",
    "seal_data",
    "unseal_data",
]
