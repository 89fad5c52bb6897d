"""Operating points, parameter space and normalizations (paper Sec. III).

All cell delays are parametrized by supply voltage ``v`` and load
capacitance ``c``.  Both are constrained to intervals which together form
the continuous two-dimensional parameter space ``P ⊆ R²``; each point
``P = (v, c)`` is an *operating point*.

Prior to regression the predictors are normalized to ``[0, 1]`` to evenly
weight them and prevent over-fitting (Sec. III-C):

* ``φ_V(v) = (v − V_min) / (V_max − V_min)`` — linear in voltage,
* ``φ_C(c) = (log₂ c − log₂ C_min) / (log₂ C_max − log₂ C_min)`` —
  logarithmic in capacitance, because library sweeps sample loads in
  powers of two,
* ``φ_D(d) = d / d_nom − 1`` — delays become *relative deviations* from
  the nominal operating point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError
from repro.units import FF

__all__ = ["OperatingPoint", "ParameterSpace"]

#: Slack (volts) by which a supply may pass the box and still be inside.
VOLTAGE_TOLERANCE = 1e-9


@dataclass(frozen=True, order=True)
class OperatingPoint:
    """A point ``P = (v, c)`` of the parameter space.

    Attributes
    ----------
    voltage:
        Supply voltage in volts.
    load:
        Output load capacitance in farads.
    """

    voltage: float
    load: float

    def __post_init__(self) -> None:
        if self.voltage <= 0:
            raise ParameterError(f"voltage must be positive, got {self.voltage}")
        if self.load <= 0:
            raise ParameterError(f"load must be positive, got {self.load}")

    def __str__(self) -> str:
        return f"({self.voltage:.3f} V, {self.load / FF:.3g} fF)"


@dataclass(frozen=True)
class ParameterSpace:
    """The constrained parameter (sub-)space ``P ⊆ R²`` with normalizers.

    Attributes
    ----------
    v_min, v_max:
        Supply-voltage interval ``[V_min, V_max]`` in volts.
    c_min, c_max:
        Load-capacitance interval ``[C_min, C_max]`` in farads.
    v_nom:
        Nominal supply voltage; the nominal operating point of a gate is
        ``(v_nom, c)`` with ``c`` the gate's actual load.
    """

    v_min: float = 0.55
    v_max: float = 1.10
    c_min: float = 0.5 * FF
    c_max: float = 128.0 * FF
    v_nom: float = 0.80

    def __post_init__(self) -> None:
        if not 0 < self.v_min < self.v_max:
            raise ParameterError("need 0 < v_min < v_max")
        if not 0 < self.c_min < self.c_max:
            raise ParameterError("need 0 < c_min < c_max")
        if not self.v_min <= self.v_nom <= self.v_max:
            raise ParameterError(
                f"nominal voltage {self.v_nom} outside [{self.v_min}, {self.v_max}]"
            )

    # -- membership -------------------------------------------------------------

    def contains(self, point: OperatingPoint,
                 tolerance: float = VOLTAGE_TOLERANCE) -> bool:
        """True when the operating point lies inside the space."""
        return (
            self.v_min - tolerance <= point.voltage <= self.v_max + tolerance
            and self.c_min * (1 - 1e-9) <= point.load <= self.c_max * (1 + 1e-9)
        )

    def require(self, point):
        """Validate membership of an :class:`OperatingPoint` or of an array
        of supply voltages (NaN is outside); raise :class:`ParameterError`
        otherwise."""
        if isinstance(point, OperatingPoint):
            if not self.contains(point):
                raise ParameterError(f"operating point {point} outside parameter space")
            return point
        voltages = np.asarray(point, dtype=np.float64)
        inside = ((voltages >= self.v_min - VOLTAGE_TOLERANCE)
                  & (voltages <= self.v_max + VOLTAGE_TOLERANCE))
        if not inside.all():
            raise ParameterError(
                f"supply {float(voltages[~inside].flat[0]):.10g} V is outside the "
                f"characterized box [{self.v_min:g}, {self.v_max:g}] V")
        return point

    def require_loads(self, loads):
        """Validate an array of loads (farads; NaN is outside) as
        :meth:`require` does supplies, with :meth:`contains`' tolerance."""
        values = np.asarray(loads, dtype=np.float64)
        outside = ~((values >= self.c_min * (1 - 1e-9))
                    & (values <= self.c_max * (1 + 1e-9)))
        if outside.any():
            raise ParameterError(
                f"load {float(values[outside].flat[0]) / FF:.10g} fF is outside "
                f"the characterized box [{self.c_min / FF:g}, {self.c_max / FF:g}] fF")
        return loads

    # -- normalizations (φ_V, φ_C, φ_D) ------------------------------------------

    def normalize_voltage(self, v):
        """``φ_V``: map ``[V_min, V_max] → [0, 1]`` linearly."""
        return (np.asarray(v, dtype=np.float64) - self.v_min) / (self.v_max - self.v_min)

    def denormalize_voltage(self, nv):
        return np.asarray(nv, dtype=np.float64) * (self.v_max - self.v_min) + self.v_min

    def normalize_load(self, c):
        """``φ_C``: map ``[C_min, C_max] → [0, 1]`` logarithmically."""
        log_min = math.log2(self.c_min)
        log_max = math.log2(self.c_max)
        return (np.log2(np.asarray(c, dtype=np.float64)) - log_min) / (log_max - log_min)

    def denormalize_load(self, nc):
        log_min = math.log2(self.c_min)
        log_max = math.log2(self.c_max)
        return np.exp2(np.asarray(nc, dtype=np.float64) * (log_max - log_min) + log_min)

    @staticmethod
    def normalize_delay(d, d_nom):
        """``φ_D``: relative delay deviation ``d / d_nom − 1``."""
        return np.asarray(d, dtype=np.float64) / np.asarray(d_nom, dtype=np.float64) - 1.0

    @staticmethod
    def denormalize_delay(deviation, d_nom):
        """Invert ``φ_D`` (this is the paper's Eq. 9: ``d' = d_nom·(1+f)``)."""
        return np.asarray(d_nom, dtype=np.float64) * (1.0 + np.asarray(deviation, dtype=np.float64))

    def normalize_point(self, point: OperatingPoint):
        """Normalized coordinates ``(φ_V(v), φ_C(c))`` of an operating point."""
        return (
            float(self.normalize_voltage(point.voltage)),
            float(self.normalize_load(point.load)),
        )

    # -- grids --------------------------------------------------------------------

    def voltage_grid(self, count: int) -> np.ndarray:
        """``count`` equidistant voltages spanning the space."""
        if count < 2:
            raise ParameterError("grid needs at least 2 points")
        return np.linspace(self.v_min, self.v_max, count)

    def load_grid(self, count: int) -> np.ndarray:
        """``count`` log-equidistant loads spanning the space."""
        if count < 2:
            raise ParameterError("grid needs at least 2 points")
        return np.exp2(np.linspace(math.log2(self.c_min), math.log2(self.c_max), count))

    def evaluation_grid(self, count: int = 64):
        """The paper's ``count × count`` equidistant evaluation grid.

        Returns ``(voltages, loads)`` where voltages are equidistant in v
        and loads equidistant in φ_C (log₂ c), matching how the paper's
        64×64 error grids are laid out.
        """
        return self.voltage_grid(count), self.load_grid(count)

    @classmethod
    def paper_default(cls) -> "ParameterSpace":
        """The exact space used in the paper's experiments (Sec. V)."""
        return cls()
