"""End-to-end reproductions of the paper's Section III attacks."""

from repro.attacks.cloning import (
    campaign_world,
    launch_clone,
    probe_window_trace,
    run_campaign,
)
from repro.attacks.fork import (
    ForkAttackResult,
    run_fork_attack_defended,
    run_fork_attack_vulnerable,
)
from repro.attacks.rollback import (
    RollbackAttackResult,
    run_rollback_attack_defended,
    run_rollback_attack_vulnerable,
)

__all__ = [
    "ForkAttackResult",
    "RollbackAttackResult",
    "campaign_world",
    "launch_clone",
    "probe_window_trace",
    "run_campaign",
    "run_fork_attack_defended",
    "run_fork_attack_vulnerable",
    "run_rollback_attack_defended",
    "run_rollback_attack_vulnerable",
]
