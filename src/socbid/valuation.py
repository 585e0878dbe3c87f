"""Marginal opportunity value of stored energy by analytical backward induction.

The value of one extra MWh in storage at the end of a period, q_t(e), is
tabulated on an SoC grid and propagated backward one period at a time. Each
step classifies every grid level into one of five regimes (charge at full
power, charge capped by remaining headroom, hold, discharge capped by stored
energy, discharge at full power) and assigns the corresponding marginal
value in closed form. Integration of the curve recovers the opportunity
value function used for bid design.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .model import DataValidationError, PriceSeries, SoCGrid, StorageParams, validate_params

# Tolerance (in grid-index units) when deciding whether a full-power SoC
# shift stays inside the grid; absorbs float noise in step arithmetic.
_IDX_EPS = 1e-9


class StepCase(IntEnum):
    """Regime labels for one backward-induction step, ordered by price band."""

    FULL_CHARGE = 0
    PARTIAL_CHARGE = 1
    HOLD = 2
    PARTIAL_DISCHARGE = 3
    FULL_DISCHARGE = 4


@dataclass(frozen=True, eq=False)
class ValueCurve:
    """Marginal value of stored energy ($/MWh) at each grid SoC level.

    Values must be non-increasing in SoC: the underlying opportunity value
    function is concave.
    """

    grid: SoCGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.shape != (self.grid.num_points,):
            raise DataValidationError(
                f"curve has {arr.size} values for a {self.grid.num_points}-point grid"
            )
        if not np.all(np.isfinite(arr)):
            raise DataValidationError("curve values must be finite")
        _require_non_increasing(arr)
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @classmethod
    def flat(cls, grid: SoCGrid, value: float = 0.0) -> ValueCurve:
        return cls(grid, np.full(grid.num_points, float(value)))


@dataclass(frozen=True, eq=False)
class ValueSurface:
    """Value curves at every period boundary t = 0..T of a valuation horizon.

    Row t of ``values`` is the curve after period t's dispatch; row T is the
    terminal condition supplied to the backward pass. Every row must be
    non-increasing in SoC, like a ValueCurve.
    """

    grid: SoCGrid
    step_hours: float
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != self.grid.num_points:
            raise DataValidationError("surface must be (T+1, num_points)")
        if self.step_hours <= 0:
            raise DataValidationError(f"step_hours must be positive, got {self.step_hours}")
        _require_non_increasing(arr)
        object.__setattr__(self, "values", arr)

    @property
    def horizon(self) -> int:
        """Number of periods T covered by the surface."""
        return self.values.shape[0] - 1

    def curve(self, t: int) -> ValueCurve:
        return ValueCurve(self.grid, self.values[t])


def _require_non_increasing(values: np.ndarray) -> None:
    """Raise unless each row (last axis) of ``values`` is non-increasing up to float noise.

    Rows are checked in blocks, so no temporary spans a whole (T, J) table.
    """
    rows = values.reshape(-1, values.shape[-1])
    for first in range(0, rows.shape[0], 256):
        block = rows[first : first + 256]
        tol = 1e-9 * (1.0 + np.max(np.abs(block), axis=1, keepdims=True))
        bad_rows, bad_cols = np.nonzero(np.diff(block, axis=1) > tol)
        if bad_rows.size:
            raise DataValidationError(
                f"values must be non-increasing in SoC; row {first + bad_rows[0]} "
                f"rises at index {bad_cols[0]}"
            )


def _nearest_shift(delta: float, direction: int) -> int:
    """Grid-index distance of a full-power SoC shift, nearest with ties toward lower SoC.

    ``direction`` is +1 for upward (charge) shifts and -1 for downward
    (discharge) shifts; the tie rule acts on the target index, so the two
    directions round exact midpoints oppositely in shift magnitude.
    """
    snapped = round(delta)
    if abs(delta - snapped) <= _IDX_EPS:
        return int(snapped)
    if direction > 0:
        return int(np.ceil(delta - 0.5))
    return int(np.floor(delta + 0.5))


def _shifted_lookups(
    q: np.ndarray, params: StorageParams, step: float, dt_hours: float
) -> tuple[np.ndarray, np.ndarray]:
    """Curve values after a full-power charge (up) and discharge (down) shift.

    Levels whose shifted SoC leaves the grid get sentinel values: -inf above
    the top of the grid (no room to charge), +inf below the bottom (no energy
    to discharge). The sentinels make the infeasible regimes unselectable.
    """
    n = q.size
    eta = params.efficiency_one_way
    up = params.power_rating * eta * dt_hours / step
    down = params.power_rating * dt_hours / (eta * step)
    idx = np.arange(n)

    di_up = _nearest_shift(up, +1)
    feasible_up = idx + up <= (n - 1) + _IDX_EPS
    q_up = np.where(feasible_up, q[np.minimum(idx + di_up, n - 1)], -np.inf)

    di_down = _nearest_shift(down, -1)
    feasible_down = idx - down >= -_IDX_EPS
    q_down = np.where(feasible_down, q[np.maximum(idx - di_down, 0)], np.inf)
    return q_up, q_down


def _step_values(
    q: np.ndarray,
    price: float,
    params: StorageParams,
    step: float,
    dt_hours: float,
    cases: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """One backward step of the five-regime recursion on raw arrays."""
    eta = params.efficiency_one_way
    c = params.discharge_cost
    q_up, q_down = _shifted_lookups(q, params, step, dt_hours)

    # Price bands, lowest to highest. The discharge thresholds are clipped
    # at zero so no discharge regime can fire at a negative price.
    below_full_charge = price <= q_up * eta
    below_partial_charge = price <= q * eta
    below_hold = price <= np.maximum(q / eta + c, 0.0)
    below_partial_discharge = price <= np.maximum(q_down / eta + c, 0.0)

    out = np.where(
        below_full_charge,
        q_up,
        np.where(
            below_partial_charge,
            price / eta,
            np.where(
                below_hold,
                q,
                np.where(below_partial_discharge, (price - c) * eta, q_down),
            ),
        ),
    )
    if not cases:
        return out
    bands = [below_full_charge, below_partial_charge, below_hold, below_partial_discharge]
    return out, np.select(bands, list(StepCase)[:4], StepCase.FULL_DISCHARGE)


def update_step(
    q_next: ValueCurve, price: float, params: StorageParams, dt_hours: float
) -> ValueCurve:
    """Propagate a marginal-value curve one period backward for one price.

    Returns the curve at the start of the period, given the curve ``q_next``
    at its end and the period's (predicted) price. Monotonicity of the input
    is enforced by the ValueCurve type; the output is monotone as well.
    """
    validate_params(params)
    if dt_hours <= 0:
        raise DataValidationError(f"dt_hours must be positive, got {dt_hours}")
    if not np.isfinite(price):
        raise DataValidationError(f"price must be finite, got {price}")
    out = _step_values(q_next.values, float(price), params, q_next.grid.step, dt_hours)
    return ValueCurve(q_next.grid, out)


def step_case_breakdown(
    q_next: ValueCurve, price: float, params: StorageParams, dt_hours: float
) -> np.ndarray:
    """Regime label (StepCase) selected at each grid level for one step."""
    _, labels = _step_values(
        q_next.values, float(price), params, q_next.grid.step, dt_hours, cases=True
    )
    return labels


def backward_induct(
    prediction: PriceSeries,
    params: StorageParams,
    grid: SoCGrid,
    terminal: ValueCurve | None = None,
) -> ValueSurface:
    """Tabulate marginal-value curves at every period boundary of a price series.

    Runs the recursion from a terminal curve (flat zero when omitted: stored
    energy is worthless after the horizon) back to the start of the series.
    Row t of the result is the curve after period t; row T equals the
    terminal condition.
    """
    out = np.empty((len(prediction) + 1, grid.num_points))
    for t, q in _backward_curves(prediction, params, grid, terminal):
        out[t] = q
    return ValueSurface(grid, prediction.resolution_hours, out)


def _backward_curves(
    prediction: PriceSeries,
    params: StorageParams,
    grid: SoCGrid,
    terminal: ValueCurve | None = None,
):
    """Yield (t, curve values after period t) for t = T down to 0.

    The backward recursion behind :func:`backward_induct`, holding one curve
    at a time; the terminal curve is flat zero when omitted.
    """
    validate_params(params)
    if terminal is None:
        terminal = ValueCurve.flat(grid)
    if terminal.grid != grid:
        raise DataValidationError("terminal curve is tabulated on a different grid")
    dt = prediction.resolution_hours
    q = terminal.values
    for t in range(len(prediction), 0, -1):
        yield t, q
        q = _step_values(q, float(prediction.values[t - 1]), params, grid.step, dt)
    yield 0, q


def _cell_edges(grid: SoCGrid) -> np.ndarray:
    """Boundaries of the SoC interval each grid point represents (length n+1)."""
    pts = grid.points()
    edges = np.empty(grid.num_points + 1)
    edges[0] = grid.soc_min
    edges[-1] = grid.soc_max
    edges[1:-1] = 0.5 * (pts[:-1] + pts[1:])
    return edges


def _integral_at(edges: np.ndarray, values: np.ndarray, points) -> np.ndarray:
    """Integral of a piecewise-constant function from ``edges[0]`` to each point.

    ``values[i]`` holds between ``edges[i]`` and ``edges[i+1]``; points
    outside the edges are clipped to them.
    """
    cum = np.empty(edges.size)
    cum[0] = 0.0
    np.cumsum(values * np.diff(edges), out=cum[1:])
    return np.interp(points, edges, cum)


def _segment_means(edges: np.ndarray, values: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Mean of the piecewise-constant function over each pair of consecutive boundaries."""
    return np.diff(_integral_at(edges, values, boundaries)) / np.diff(boundaries)


def average_marginal(curve: ValueCurve, lo: float, hi: float) -> float:
    """Mean marginal value over the SoC range [lo, hi], in $/MWh.

    The curve is read as piecewise constant over grid cells (nearest-point
    semantics), so the integral is exact for that step function.
    """
    grid = curve.grid
    tol = 1e-9 * (1.0 + abs(grid.soc_max))
    if lo < grid.soc_min - tol or hi > grid.soc_max + tol:
        raise DataValidationError(
            f"range [{lo}, {hi}] leaves the grid [{grid.soc_min}, {grid.soc_max}]"
        )
    if not lo < hi:
        raise DataValidationError(f"degenerate range: lo={lo} must be below hi={hi}")
    return float(segment_averages(curve, np.array([lo, hi]))[0])


def segment_averages(curve: ValueCurve, boundaries: np.ndarray) -> np.ndarray:
    """Mean marginal value over each consecutive pair of boundaries."""
    return _segment_means(_cell_edges(curve.grid), curve.values, boundaries)
