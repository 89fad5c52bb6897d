"""The :class:`Waveform` type — a signal's full switching history.

Following the waveform representation of Holst et al. (the paper's
baseline [25]), a waveform is an **initial logic value** plus a strictly
increasing sequence of **toggle times**: every listed time flips the
signal.  This compact form carries complete glitch information — exactly
what the paper needs for glitch-accurate switching-activity analysis —
while staying trivially mappable to fixed-capacity GPU memory
(:mod:`repro.waveform.plane`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Sequence, Tuple

import numpy as np

__all__ = ["Waveform"]


@dataclass(frozen=True)
class Waveform:
    """An immutable binary waveform.

    Attributes
    ----------
    initial:
        Logic value (0/1) before the first toggle.
    times:
        Strictly increasing toggle times in seconds (float64 array).
        At each listed time the value flips; the new value holds *at*
        that time (left-closed semantics).
    """

    initial: int
    times: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.float64))

    def __post_init__(self) -> None:
        if self.initial not in (0, 1):
            raise ValueError(f"initial value must be 0 or 1, got {self.initial!r}")
        times = np.asarray(self.times, dtype=np.float64)
        if times.ndim != 1:
            raise ValueError("toggle times must be one-dimensional")
        if np.any(~np.isfinite(times)):
            raise ValueError("toggle times must be finite")
        if times.size > 1 and np.any(np.diff(times) <= 0):
            raise ValueError("toggle times must be strictly increasing")
        object.__setattr__(self, "times", times)

    # -- constructors -----------------------------------------------------------

    @classmethod
    def constant(cls, value: int) -> "Waveform":
        """A waveform that never switches."""
        return cls(initial=value)

    @classmethod
    def trusted(cls, initial: int, times: np.ndarray) -> "Waveform":
        """Validation-free constructor for engine-internal use.

        The simulation engines produce toggle arrays that satisfy the
        invariants by construction; skipping ``__post_init__`` keeps bulk
        waveform extraction out of the hot path.  ``times`` must already
        be a strictly increasing float64 array owned by the caller.
        """
        waveform = object.__new__(cls)
        object.__setattr__(waveform, "initial", initial)
        object.__setattr__(waveform, "times", times)
        return waveform

    @classmethod
    def step(cls, value_after: int, at: float) -> "Waveform":
        """A single transition to ``value_after`` at time ``at``."""
        return cls(initial=1 - value_after, times=np.asarray([at], dtype=np.float64))

    @classmethod
    def from_transitions(cls, initial: int,
                         transitions: Iterable[Tuple[float, int]]) -> "Waveform":
        """Build from ``(time, new_value)`` pairs; redundant entries dropped."""
        times: List[float] = []
        value = initial
        for time, new_value in transitions:
            if new_value not in (0, 1):
                raise ValueError(f"transition value must be 0/1, got {new_value!r}")
            if new_value != value:
                times.append(time)
                value = new_value
        return cls(initial=initial, times=np.asarray(times, dtype=np.float64))

    # -- queries -----------------------------------------------------------------

    @property
    def num_transitions(self) -> int:
        return int(self.times.size)

    @property
    def final_value(self) -> int:
        return self.initial ^ (self.num_transitions & 1)

    def value_at(self, time: float) -> int:
        """Logic value at ``time`` (transitions take effect at their time)."""
        count = int(np.searchsorted(self.times, time, side="right"))
        return self.initial ^ (count & 1)

    def transitions(self) -> Iterator[Tuple[float, int]]:
        """Iterate ``(time, new_value)`` pairs."""
        value = self.initial
        for time in self.times:
            value ^= 1
            yield float(time), value

    def latest_transition(self) -> float:
        """Time of the last toggle; ``-inf`` for constant waveforms."""
        if self.times.size == 0:
            return float("-inf")
        return float(self.times[-1])

    def pulse_widths(self) -> np.ndarray:
        """Durations between consecutive toggles."""
        if self.times.size < 2:
            return np.empty(0, dtype=np.float64)
        return np.diff(self.times)

    def min_pulse_width(self) -> float:
        widths = self.pulse_widths()
        return float(widths.min()) if widths.size else float("inf")

    # -- algebra --------------------------------------------------------------------

    def shifted(self, delta: float) -> "Waveform":
        """The same waveform delayed by ``delta`` seconds."""
        return Waveform(initial=self.initial, times=self.times + delta)

    def inverted(self) -> "Waveform":
        """Logical complement (same toggle times)."""
        return Waveform(initial=1 - self.initial, times=self.times.copy())

    def sampled(self, times: Sequence[float]) -> np.ndarray:
        """Vector of values at the given sample times."""
        counts = np.searchsorted(self.times, np.asarray(times, dtype=np.float64),
                                 side="right")
        return (self.initial ^ (counts & 1)).astype(np.uint8)

    def equivalent(self, other: "Waveform", tolerance: float = 0.0) -> bool:
        """Equality up to a per-toggle time tolerance."""
        if self.initial != other.initial or self.num_transitions != other.num_transitions:
            return False
        if self.num_transitions == 0:
            return True
        return bool(np.all(np.abs(self.times - other.times) <= tolerance))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Waveform):
            return NotImplemented
        return self.equivalent(other)

    def __hash__(self) -> int:
        return hash((self.initial, self.times.tobytes()))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        shown = ", ".join(f"{t:.3e}" for t in self.times[:4])
        suffix = ", …" if self.num_transitions > 4 else ""
        return f"Waveform(initial={self.initial}, times=[{shown}{suffix}])"
