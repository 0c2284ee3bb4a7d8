"""Virtual time for deterministic, hardware-free performance experiments.

The paper measures wall-clock durations of ECALLs on real SGX hardware.  We
have no SGX hardware, so every simulated component *charges* time to a
:class:`VirtualClock` instead: the CPU charges for AES rounds and EGETKEY,
Platform Services charges its (rate-limited) counter round-trips, and the
network charges latency and transfer time.  Benchmarks then read elapsed
virtual time exactly as the paper reads elapsed wall time.

Because costs are charged by the code paths actually executed (an extra seal
on counter create really performs — and charges — a seal), relative shapes
such as "increment is 12.3 % slower with the Migration Library" emerge from
the implementation rather than being hard-coded.
"""

from __future__ import annotations


class VirtualClock:
    """A monotonically advancing virtual clock measured in seconds."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def advance(self, seconds: float) -> None:
        """Charge ``seconds`` of virtual time. Negative charges are invalid."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by negative time: {seconds}")
        self._now += seconds

    def advance_to(self, instant: float) -> None:
        """Jump forward to an absolute virtual instant (never backward).

        This is the :class:`~repro.sim.scheduler.Scheduler`'s interface: as
        the event engine dispatches timed events it drags the clock along,
        so during a scheduler run the clock is a view over the event clock.
        """
        if instant < self._now:
            raise ValueError(
                f"cannot rewind clock from {self._now} to {instant}"
            )
        self._now = instant

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"VirtualClock(now={self._now:.6f})"

