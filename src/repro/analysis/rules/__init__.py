"""The rule catalog.

Each rule lives in its own module; :func:`default_rules` instantiates the
catalog in rule-id order.  Adding a rule = adding a module here and listing
it below — the engine, CLI and tests pick it up automatically.
SEC001, SEC003, and SEC008-SEC010 are :class:`~repro.analysis.engine.
ProjectRule` subclasses running on the whole-program call graph and taint
summaries; the rest are per-module pattern rules.  The id SEC005 is
retired: SEC009 checks both the library lifecycle and the
increment-before-release order, on call paths of one function or many.
"""

from __future__ import annotations

from repro.analysis.rules.sec001_secret_flow import SecretFlowRule
from repro.analysis.rules.sec002_boundary import EnclaveBoundaryRule
from repro.analysis.rules.sec003_nonce import NonceHygieneRule
from repro.analysis.rules.sec004_consttime import ConstantTimeRule
from repro.analysis.rules.sec006_protocol import ProtocolStateRule
from repro.analysis.rules.sec007_durability import DurableWriteRule
from repro.analysis.rules.sec008_taint_return import TaintedReturnRule
from repro.analysis.rules.sec009_lifecycle import LifecycleRule
from repro.analysis.rules.sec010_reachability import ReachabilityAuditRule

ALL_RULE_CLASSES = (
    SecretFlowRule,
    EnclaveBoundaryRule,
    NonceHygieneRule,
    ConstantTimeRule,
    ProtocolStateRule,
    DurableWriteRule,
    TaintedReturnRule,
    LifecycleRule,
    ReachabilityAuditRule,
)


def default_rules():
    """Fresh instances of every registered rule, in rule-id order."""
    return [cls() for cls in ALL_RULE_CLASSES]


__all__ = [
    "ALL_RULE_CLASSES",
    "default_rules",
    "SecretFlowRule",
    "EnclaveBoundaryRule",
    "NonceHygieneRule",
    "ConstantTimeRule",
    "ProtocolStateRule",
    "DurableWriteRule",
    "TaintedReturnRule",
    "LifecycleRule",
    "ReachabilityAuditRule",
]
