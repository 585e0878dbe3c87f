"""Shared domain types: storage parameters, price series, SoC grid, dispatch records.

Unit conventions used throughout the package: power in MW, energy in MWh,
prices and costs in $/MWh, money in $, time steps in hours. Interval energy
is always power times the step length in hours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone

import numpy as np

# Absolute slack for SoC feasibility comparisons (MWh). Keeps strict bound
# checks from tripping on accumulated float noise in long simulations.
SOC_EPS = 1e-9

# Fewest SoC grid points a valuation asks for; SoCGrid.for_storage may raise it
DEFAULT_GRID_POINTS = 1001


class DataValidationError(ValueError):
    """Raised when an input object or file violates a documented invariant."""


@dataclass(frozen=True)
class StorageParams:
    """Physical and economic parameters of one storage unit.

    ``efficiency_one_way`` applies once per direction: charging at grid power
    b stores b*eta MWh per hour, discharging at grid power p drains p/eta MWh
    per hour. ``discharge_cost`` is charged per MWh delivered to the grid.
    An instance is valid: construction raises DataValidationError naming a bad field.
    """

    power_rating: float
    energy_capacity: float
    efficiency_one_way: float = 0.9
    discharge_cost: float = 10.0
    soc_min: float = 0.0
    soc_max: float | None = None

    def __post_init__(self) -> None:
        if self.soc_max is None:
            object.__setattr__(self, "soc_max", float(self.energy_capacity))
        if not (self.power_rating > 0 and math.isfinite(self.power_rating)):
            raise DataValidationError(f"power_rating must be positive, got {self.power_rating}")
        if not (self.energy_capacity > 0 and math.isfinite(self.energy_capacity)):
            raise DataValidationError(
                f"energy_capacity must be positive, got {self.energy_capacity}"
            )
        if not (0.0 < self.efficiency_one_way <= 1.0):
            raise DataValidationError(
                f"efficiency_one_way must lie in (0, 1], got {self.efficiency_one_way}"
            )
        if not (self.discharge_cost >= 0 and math.isfinite(self.discharge_cost)):
            raise DataValidationError(
                f"discharge_cost must be non-negative, got {self.discharge_cost}"
            )
        if not (math.isfinite(self.soc_min) and self.soc_min < self.soc_max):
            raise DataValidationError(
                f"soc_min must be finite and below soc_max, got [{self.soc_min}, {self.soc_max}]"
            )
        if self.soc_max > self.energy_capacity + SOC_EPS:
            raise DataValidationError(
                f"soc_max {self.soc_max} exceeds energy_capacity {self.energy_capacity}"
            )

    @property
    def duration_hours(self) -> float:
        """Hours of discharge at full power: energy capacity over power rating."""
        return self.energy_capacity / self.power_rating


def check_soc_range(lo: float, hi: float, params: StorageParams, what: str) -> None:
    """Require that [lo, hi], the SoC range of ``what``, is the storage's SoC range.

    ``what`` names the object in the error, e.g. "grid range" or "bid curve".
    """
    tol = 1e-9 * (1.0 + abs(params.soc_max))
    if abs(lo - params.soc_min) > tol or abs(hi - params.soc_max) > tol:
        raise DataValidationError(
            f"{what} spans [{lo}, {hi}] but the storage SoC range is "
            f"[{params.soc_min}, {params.soc_max}]"
        )


def check_step(hours: float, price: float = 0.0, what: str = "dt_hours") -> None:
    """Require that ``what``, a step length, lies in (0, inf) hours and ``price`` is finite."""
    if not 0 < hours < math.inf:
        raise DataValidationError(f"{what} must lie in (0, inf), got {hours}")
    if not math.isfinite(price):
        raise DataValidationError(f"price must be finite, got {price}")


def check_initial_soc(e: float, params: StorageParams, what: str = "initial SoC") -> None:
    """Require that ``e`` lies in the storage's SoC range, up to SOC_EPS; ``what`` names it."""
    if not params.soc_min - SOC_EPS <= e <= params.soc_max + SOC_EPS:
        raise DataValidationError(f"{what} {e} outside [{params.soc_min}, {params.soc_max}]")


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """Uniformly spaced electricity price tape for one zone.

    Negative prices are meaningful (storage is paid to charge), never an
    error. The series is gap-free by construction: only start, resolution,
    and the value array are stored.
    """

    zone: str
    start: datetime
    resolution: timedelta
    values: np.ndarray
    gaps_filled: int = 0

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise DataValidationError("price series needs at least one value")
        if not np.all(np.isfinite(arr)):
            raise DataValidationError("price series contains non-finite values")
        if self.resolution <= timedelta(0):
            raise DataValidationError(f"resolution must be positive, got {self.resolution}")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        if self.start.tzinfo is None:
            object.__setattr__(self, "start", self.start.replace(tzinfo=timezone.utc))

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def resolution_hours(self) -> float:
        return self.resolution.total_seconds() / 3600.0

    @property
    def span(self) -> timedelta:
        return self.resolution * len(self)

    def timestamp(self, i: int) -> datetime:
        return self.start + i * self.resolution


@dataclass(frozen=True)
class SoCGrid:
    """Equally spaced SoC levels used to tabulate marginal-value curves.

    Each point stands for the SoC levels nearest to it: tabulated curves are
    read as piecewise constant over cells split at the midpoints.
    """

    soc_min: float
    soc_max: float
    num_points: int = DEFAULT_GRID_POINTS

    def __post_init__(self) -> None:
        if self.num_points < 2:
            raise DataValidationError(f"num_points must be at least 2, got {self.num_points}")
        if not self.soc_min < self.soc_max:
            raise DataValidationError(
                f"grid needs soc_min < soc_max, got [{self.soc_min}, {self.soc_max}]"
            )

    @property
    def step(self) -> float:
        return (self.soc_max - self.soc_min) / (self.num_points - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.soc_min, self.soc_max, self.num_points)

    @classmethod
    def for_storage(
        cls, params: StorageParams, dt_hours: float, num_points: int = DEFAULT_GRID_POINTS
    ) -> SoCGrid:
        """Grid over the storage's SoC range, fine enough for time step ``dt_hours``.

        ``num_points`` is a lower bound: the grid gets ``min_points`` points
        when the time step needs more.
        """
        points = max(num_points, cls.min_points(params, dt_hours))
        return cls(params.soc_min, params.soc_max, points)

    @classmethod
    def min_points(cls, params: StorageParams, dt_hours: float) -> int:
        """Smallest point count with step <= P*eta*dt/10, for ``dt_hours`` in (0, inf).

        At least ten grid points then span one full-power interval of SoC
        movement. ``for_storage`` never builds a grid with fewer points.
        """
        check_step(dt_hours)
        limit = params.power_rating * params.efficiency_one_way * dt_hours / 10.0
        return int(math.ceil((params.soc_max - params.soc_min) / limit)) + 1


@dataclass(frozen=True)
class DispatchDecision:
    """Outcome of one settlement interval for one storage unit.

    ``realized_profit`` is cash at the settlement price minus the true
    discharge cost.
    """

    discharge_power: float
    charge_power: float
    soc_after: float
    realized_profit: float

    def __post_init__(self) -> None:
        if self.discharge_power < -SOC_EPS or self.charge_power < -SOC_EPS:
            raise DataValidationError("dispatch powers must be non-negative")
        if self.discharge_power > SOC_EPS and self.charge_power > SOC_EPS:
            raise DataValidationError("simultaneous charge and discharge is not allowed")
