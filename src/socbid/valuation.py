"""Marginal opportunity value of stored energy by analytical backward induction.

The value of one extra MWh in storage at the end of a period, q_t(e), is
tabulated on an SoC grid and propagated backward one period at a time. Each
step classifies every grid level into one of five regimes (charge at full
power, charge capped by remaining headroom, hold, discharge capped by stored
energy, discharge at full power) and assigns the corresponding marginal
value in closed form. Integration of the curve recovers the opportunity
value function used for bid design.

A step is a handful of whole-array passes. A full-power charge fits on the
grid for a prefix of the levels and a full-power discharge for a suffix, so
the curve and the price tests at the shifted levels are slices of the
unshifted ones, with no gather. The regimes are then written lowest
priority first (full discharge, capped discharge, hold, capped charge, full
charge), each a masked copy over the one before, so every level keeps the
first band its price falls in.
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
    """Raise unless each row (last axis) of ``values`` is finite and non-increasing.

    A rise within float noise passes: the tolerance scales with the row's
    largest magnitude, so it is finite exactly when the row is. Rows are
    checked in blocks, so no temporary spans a whole (T, J) table.
    """
    rows = values.reshape(-1, values.shape[-1])
    for first in range(0, rows.shape[0], 256):
        block = rows[first : first + 256]
        tol = 1e-9 * (1.0 + np.max(np.abs(block), axis=1, keepdims=True))
        (bad_rows,) = np.nonzero(~np.isfinite(tol[:, 0]))
        if bad_rows.size:
            raise DataValidationError(f"values must be finite; row {first + bad_rows[0]} is not")
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


def _step_values(
    q: np.ndarray,
    price: float,
    params: StorageParams,
    plan: tuple[int, int, int, int],
    cases: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """One backward step of the five-regime recursion, with ``plan`` from :func:`_shift_plan`.

    Two masks decide every band: ``price <= q*eta`` (charge) and ``price <=
    max(q/eta + c, 0)`` (hold; clipped at zero so no discharge regime fires
    at a negative price). The full-power bands test the same thresholds at
    the shifted level, so they are slices of the two masks, as the shifted
    curves are slices of ``q``. A level with no room for a full-power
    charge never charges fully; a level with too little energy for a
    full-power discharge discharges at least capped, since a finite price
    is always below its missing threshold. ``cases=True`` also returns the
    StepCase labels, written from the same masks.
    """
    eta = params.efficiency_one_way
    c = params.discharge_cost
    up, up_levels, down, down_from = plan
    # Level i < up_levels reads level i + up, level i >= down_from reads
    # level i - down; with no level fitting, the bounds are equal and the
    # slice is empty.
    above = slice(up, up + up_levels)
    below = slice(down_from - down, q.size - down)
    charge = price <= q * eta
    ceiling = q / eta
    ceiling += c
    discharge = price <= np.maximum(ceiling, 0.0, out=ceiling)
    masks = (charge, discharge, charge[above], discharge[below])
    capped = (price - c) * eta
    out = _write_regimes(np.empty(q.size), plan, masks, q[below], capped, q, price / eta, q[above])
    if not cases:
        return out
    labels = _write_regimes(
        np.empty(q.size, dtype=np.int64), plan, masks, StepCase.FULL_DISCHARGE,
        StepCase.PARTIAL_DISCHARGE, StepCase.HOLD, StepCase.PARTIAL_CHARGE, StepCase.FULL_CHARGE,
    )
    return out, labels


def _write_regimes(out, plan, masks, full_discharge, partial_discharge, hold, partial_charge,
                   full_charge):
    """Fill ``out`` with each level's regime entry, lowest-priority regime first.

    Each masked write overrides the ones before it, so a level keeps the
    entry of the first band its price falls in: the pick of a nested
    ``where`` over the bands, full charge first.
    """
    _, up_levels, _, down_from = plan
    charge, discharge, full_charge_band, partial_discharge_band = masks
    out[:down_from] = partial_discharge
    out[down_from:] = full_discharge
    np.copyto(out[down_from:], partial_discharge, where=partial_discharge_band)
    np.copyto(out, hold, where=discharge)
    np.copyto(out, partial_charge, where=charge)
    np.copyto(out[:up_levels], full_charge, where=full_charge_band)
    return out


def _check_step(params: StorageParams, price: float, dt_hours: float) -> None:
    """Raise DataValidationError unless one step's storage, price and length are usable."""
    validate_params(params)
    if not (dt_hours > 0 and np.isfinite(dt_hours)):
        raise DataValidationError(f"dt_hours must be positive and finite, got {dt_hours}")
    if not np.isfinite(price):
        raise DataValidationError(f"price must be finite, got {price}")


def update_step(
    q_next: ValueCurve, price: float, params: StorageParams, dt_hours: float
) -> ValueCurve:
    """Propagate a marginal-value curve one period backward for one price.

    Returns the curve at the start of the period, given the curve ``q_next``
    at its end and the period's (predicted) price. Monotonicity of the input
    is enforced by the ValueCurve type; the output is monotone as well.
    """
    _check_step(params, price, dt_hours)
    plan = _shift_plan(q_next.grid.num_points, params, q_next.grid.step, dt_hours)
    return ValueCurve(q_next.grid, _step_values(q_next.values, float(price), params, plan))


def step_case_breakdown(
    q_next: ValueCurve, price: float, params: StorageParams, dt_hours: float
) -> np.ndarray:
    """Regime label (StepCase) selected at each grid level for one step."""
    _check_step(params, price, dt_hours)
    plan = _shift_plan(q_next.grid.num_points, params, q_next.grid.step, dt_hours)
    _, labels = _step_values(q_next.values, float(price), params, plan, cases=True)
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
    plan = _shift_plan(grid.num_points, params, grid.step, prediction.resolution_hours)
    q = terminal.values
    for t in range(len(prediction), 0, -1):
        yield t, q
        q = _step_values(q, float(prediction.values[t - 1]), params, plan)
    yield 0, q


def _cell_edges(grid: SoCGrid) -> np.ndarray:
    """Boundaries of the SoC interval each grid point represents (length n+1)."""
    pts = grid.points()
    edges = np.empty(grid.num_points + 1)
    edges[0] = grid.soc_min
    edges[-1] = grid.soc_max
    edges[1:-1] = 0.5 * (pts[:-1] + pts[1:])
    return edges


def _cumulative(edges: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Integral from ``edges[0]`` to each edge of each row of ``values``, SoC axis first.

    Returns ``(edges.size, rows)``; each column, a left fold, has the bits of a 1-D cumsum.
    """
    rows = values.reshape(-1, values.shape[-1])
    cum = np.zeros((edges.size, rows.shape[0]))
    np.cumsum((rows * np.diff(edges)).T, axis=0, out=cum[1:])
    return cum


def _interp_plan(edges: np.ndarray, points: np.ndarray) -> tuple:
    """Where np.interp reads each point on ``edges``; a pass builds it once per bid kind.

    The points taken as they are (on an edge or past an end) and their edges,
    cells k and k + 1, and as columns the cell widths, offsets and point gaps.
    """
    j = np.clip(np.searchsorted(edges, points, side="right") - 1, 0, edges.size - 1)
    as_is = np.flatnonzero((edges[j] == points) | (j == edges.size - 1) | (points < edges[0]))
    k = np.minimum(j, edges.size - 2)
    width, offset = edges[k + 1] - edges[k], points - edges[k]
    return as_is, j[as_is], k, k + 1, width[:, None], offset[:, None], np.diff(points)[:, None]


def _integrals(plan: tuple, cum: np.ndarray) -> np.ndarray:
    """Each column of ``cum`` from :func:`_cumulative` at the points of ``plan``.

    Repeats np.interp's arithmetic on whole rows of ``cum``, so each column gets
    its bits: the integral as it is, else ``slope * (x - edges[k]) + cum[k]``.
    """
    as_is, at, k, after, width, offset, _ = plan
    lo = cum.take(k, axis=0)
    out = (cum.take(after, axis=0) - lo) / width * offset + lo
    out[as_is] = cum.take(at, axis=0)
    return out


def _segment_means(plan: tuple, cum: np.ndarray) -> np.ndarray:
    """Mean of each column between consecutive points of ``plan``, SoC axis first."""
    return np.diff(_integrals(plan, cum), axis=0) / plan[-1]


def average_marginal(curve: ValueCurve, lo: float, hi: float) -> float:
    """Mean marginal value over the SoC range [lo, hi], in $/MWh.

    The curve is read as piecewise constant over grid cells (nearest-point
    semantics), so the integral is exact for that step function.
    """
    return float(segment_averages(curve, np.array([lo, hi]))[0])


def segment_averages(curve: ValueCurve, boundaries: np.ndarray) -> np.ndarray:
    """Mean marginal value over each consecutive pair of boundaries.

    The boundaries must be at least two, strictly increasing and on the grid.
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
    return _segment_means(_interp_plan(edges, bounds), _cumulative(edges, curve.values))[:, 0]
