"""Marginal opportunity value of stored energy by analytical backward induction.

The value of one extra MWh in storage at the end of a period, q_t(e), is
tabulated on an SoC grid and propagated backward one period at a time. Each
step classifies every grid level into one of five regimes (charge at full
power, charge capped by remaining headroom, hold, discharge capped by stored
energy, discharge at full power) and assigns the corresponding marginal
value in closed form. Integration of the curve recovers the opportunity
value function used for bid design.

Every curve is stored as its running minimum, so it is exactly non-increasing.
On such a curve the charge test ``price <= q*eta`` and the hold test ``price <=
max(q/eta + c, 0)`` each hold for a prefix of the levels. A step tests the end levels
first and bisects only when they leave a prefix length open, so a step that only holds
does not bisect. It writes at most five slices, one per regime, and no other full-length
pass. Float rounding can leave a 1-ulp rise where two slices meet; a step checks those
four junctions and, only on a rise, floors its output to its running minimum.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .model import (DataValidationError, PriceSeries, SoCGrid, StorageParams, check_soc_range,
                    check_step)

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

    Values must be non-increasing in SoC (opportunity value is concave) and
    are stored as their running minimum, so a float-noise rise is floored.
    """

    grid: SoCGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.shape != (self.grid.num_points,):
            raise DataValidationError(
                f"curve has {arr.size} values for a {self.grid.num_points}-point grid"
            )
        arr = _non_increasing_rows(arr).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @classmethod
    def flat(cls, grid: SoCGrid, value: float = 0.0) -> ValueCurve:
        return cls(grid, np.full(grid.num_points, float(value)))


@dataclass(frozen=True, eq=False)
class ValueSurface:
    """Value curves at every period boundary t = 0..T of a valuation horizon.

    Row t of ``values`` is the curve after period t's dispatch; row T is the
    terminal condition supplied to the backward pass. Rows are checked and
    stored like a ValueCurve's; a table that never rises is held as it is.
    """

    grid: SoCGrid
    step_hours: float
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != self.grid.num_points:
            raise DataValidationError("surface must be (T+1, num_points)")
        check_step(self.step_hours, what="step_hours")
        arr = _non_increasing_rows(arr).view()  # read-only without copying a year-long table
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def horizon(self) -> int:
        """Number of periods T covered by the surface."""
        return self.values.shape[0] - 1


def _non_increasing_rows(values: np.ndarray) -> np.ndarray:
    """Each row (last axis) of ``values`` as its running minimum, once checked.

    Raises unless each row is finite and non-increasing up to float noise, a
    tolerance scaled by the row's largest magnitude (finite exactly when the
    row is). Returns ``values`` itself unless a row rises, else a floored copy.
    Rows are checked in blocks, so no temporary spans a whole (T, J) table.
    """
    rows = values.reshape(-1, values.shape[-1])
    rises = False
    for first in range(0, rows.shape[0], 256):
        block = rows[first : first + 256]
        tol = 1e-9 * (1.0 + np.max(np.abs(block), axis=1, keepdims=True))
        (bad_rows,) = np.nonzero(~np.isfinite(tol[:, 0]))
        if bad_rows.size:
            raise DataValidationError(f"values must be finite; row {first + bad_rows[0]} is not")
        steps = np.diff(block, axis=1)
        bad_rows, bad_cols = np.nonzero(steps > tol)
        if bad_rows.size:
            raise DataValidationError(
                f"values must be non-increasing in SoC; row {first + bad_rows[0]} "
                f"rises at index {bad_cols[0]}"
            )
        rises |= bool(np.any(steps > 0))
    return np.minimum.accumulate(values, axis=-1) if rises else values


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


def _shift_plan(
    n: int, params: StorageParams, step: float, dt_hours: float
) -> tuple[int, int, int, int]:
    """How far full-power shifts move on an n-point grid, and which levels they fit.

    Returns ``(up, up_levels, down, down_from)``: a full-power charge moves a
    level up ``up`` levels and fits on the grid for the first ``up_levels``
    levels; a full-power discharge moves it down ``down`` levels and fits
    from level ``down_from`` on. A level fits when the exact shift stays on
    the grid, up to ``_IDX_EPS``; rounding to whole levels moves the target
    at most half a level, so a fitting level's rounded target is on the
    grid too. The plan depends on the grid and the step length only, so a
    backward pass builds it once.
    """
    eta = params.efficiency_one_way
    up = params.power_rating * eta * dt_hours / step
    down = params.power_rating * dt_hours / (eta * step)
    idx = np.arange(n)
    return (
        _nearest_shift(up, +1),
        int(np.count_nonzero(idx + up <= (n - 1) + _IDX_EPS)),
        _nearest_shift(down, -1),
        n - int(np.count_nonzero(idx - down >= -_IDX_EPS)),
    )


def _junctions(
    q: np.ndarray, price: float, params: StorageParams, plan: tuple[int, int, int, int]
) -> tuple[int, int, int, int]:
    """Where one backward step's five regime slices meet: ``(m1, kc, kd, m2)``.

    ``q`` must be exactly non-increasing and ``plan`` come from :func:`_shift_plan`.
    Levels below ``kc`` charge (``price <= q*eta``) and levels below ``kd >= kc``
    charge or hold (``price <= max(q/eta + c, 0)``; clipped at zero so no
    discharge regime fires at or below a price of 0). Each search tests the end levels
    of its range first and bisects only when they leave it open; every test and probe
    evaluates that same float expression. A charging level fully charges while its
    full-power target, which must fit on the grid, still charges: the first
    ``m1`` levels. A discharging level (from ``kd`` on) fully discharges once its
    full-power target, on the grid, discharges too: from ``m2`` on.
    """
    eta = params.efficiency_one_way
    c = params.discharge_cost
    up, up_levels, down, down_from = plan
    n = q.size
    levels = memoryview(q)
    if not price <= levels[0] * eta:
        kc = 0
    else:
        kc = n if price <= levels[n - 1] * eta else bisect_left(
            levels, True, key=lambda v: not price <= v * eta)
    # At a positive price, price <= max(x, 0) is price <= x.
    if price <= 0.0 or price <= levels[n - 1] / eta + c:
        kd = n
    elif kc == n or not price <= levels[kc] / eta + c:
        kd = kc
    else:
        kd = bisect_left(levels, True, lo=kc, key=lambda v: not price <= v / eta + c)
    return max(0, min(up_levels, kc - up)), kc, kd, min(n, max(kd, down_from, kd + down))


def _step_values(
    q: np.ndarray, price: float, params: StorageParams, plan: tuple[int, int, int, int]
) -> np.ndarray:
    """One backward step of the five-regime recursion over the slices of :func:`_junctions`.

    A step that only holds returns ``q`` itself; any other writes only the slices that
    hold a level. A rise where two slices meet is floored with the running minimum.
    """
    eta = params.efficiency_one_way
    up, _, down, _ = plan
    n = q.size
    m1, kc, kd, m2 = _junctions(q, price, params, plan)
    if kc == 0 and kd == n:
        return q
    out = np.empty(n)
    if m1:
        out[:m1] = q[up : up + m1]
    if m1 < kc:
        out[m1:kc] = price / eta
    if kc < kd:
        out[kc:kd] = q[kc:kd]
    if kd < m2:
        out[kd:m2] = (price - params.discharge_cost) * eta
    if m2 < n:
        out[m2:] = q[m2 - down : n - down]
    if any(0 < j < n and out[j - 1] < out[j] for j in (m1, kc, kd, m2)):
        np.minimum.accumulate(out, out=out)
    return out


def _step_plan(q_next: ValueCurve, price: float, params: StorageParams, dt_hours: float) -> tuple:
    """One step's :func:`_shift_plan`, once its grid, price and length are checked."""
    check_soc_range(q_next.grid.soc_min, q_next.grid.soc_max, params, "grid range")
    check_step(dt_hours, price)
    return _shift_plan(q_next.grid.num_points, params, q_next.grid.step, dt_hours)


def update_step(
    q_next: ValueCurve, price: float, params: StorageParams, dt_hours: float
) -> ValueCurve:
    """Propagate a marginal-value curve one period backward for one price.

    Returns the curve at the start of the period, given the curve ``q_next``
    at its end and the period's (predicted) price. Both curves are exactly
    non-increasing, as every ValueCurve is.
    """
    plan = _step_plan(q_next, price, params, dt_hours)
    return ValueCurve(q_next.grid, _step_values(q_next.values, float(price), params, plan))


def step_case_breakdown(
    q_next: ValueCurve, price: float, params: StorageParams, dt_hours: float
) -> np.ndarray:
    """Regime label (StepCase) at each grid level for one step of ``q_next``."""
    plan = _step_plan(q_next, price, params, dt_hours)
    m1, kc, kd, m2 = _junctions(q_next.values, float(price), params, plan)
    n = q_next.grid.num_points
    labels = np.empty(n, dtype=np.int64)
    for case, lo, hi in zip(StepCase, (0, m1, kc, kd, m2), (m1, kc, kd, m2, n)):
        labels[lo:hi] = case
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
    Row t of the result is the curve after period t; row T is the terminal
    curve. No row rises, so the surface holds the table without a copy.
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
    at a time; the terminal curve is flat zero when omitted. Every curve
    yielded is exactly non-increasing, as the stored terminal curve is.
    """
    check_soc_range(grid.soc_min, grid.soc_max, params, "grid range")
    if terminal is None:
        terminal = ValueCurve.flat(grid)
    if terminal.grid != grid:
        raise DataValidationError("terminal curve is tabulated on a different grid")
    plan = _shift_plan(grid.num_points, params, grid.step, prediction.resolution_hours)
    q = terminal.values
    prices = memoryview(prediction.values)
    for t in range(len(prediction), 0, -1):
        yield t, q
        q = _step_values(q, prices[t - 1], params, plan)
    yield 0, q


def _cell_edges(grid: SoCGrid) -> np.ndarray:
    """Boundaries of the SoC interval each grid point represents (length n+1)."""
    pts = grid.points()
    edges = np.empty(grid.num_points + 1)
    edges[0] = grid.soc_min
    edges[-1] = grid.soc_max
    edges[1:-1] = 0.5 * (pts[:-1] + pts[1:])
    return edges


def segment_averages(curve: ValueCurve, boundaries: np.ndarray) -> np.ndarray:
    """Mean marginal value ($/MWh) over each consecutive pair of boundaries.

    The boundaries must be at least two, strictly increasing and on the grid.
    The curve is read as piecewise constant over grid cells (nearest-point
    semantics), so the integral is exact for that step function.
    """
    grid = curve.grid
    bounds = np.asarray(boundaries, dtype=float)
    if bounds.ndim != 1 or bounds.size < 2:
        raise DataValidationError(f"need a 1-D array of at least two boundaries, not {bounds}")
    if not np.all(np.diff(bounds) > 0):
        raise DataValidationError(f"degenerate range: boundaries {bounds} must strictly increase")
    tol = 1e-9 * (1.0 + abs(grid.soc_max))
    if bounds[0] < grid.soc_min - tol or bounds[-1] > grid.soc_max + tol:
        raise DataValidationError(
            f"range [{bounds[0]}, {bounds[-1]}] leaves the grid [{grid.soc_min}, {grid.soc_max}]"
        )
    edges = _cell_edges(grid)
    cum = np.r_[0.0, np.cumsum(curve.values * np.diff(edges))]
    return np.diff(np.interp(bounds, edges, cum)) / np.diff(bounds)
