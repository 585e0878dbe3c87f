"""Independent certifiers for the multi-period perfect-foresight optimum.

``grid_dp_oracle`` solves the whole-horizon arbitrage problem by tabular
dynamic programming over the SoC grid with a discretized action set, using
linear interpolation of the value function, deliberately a different
numerical route from the analytical marginal-value recursion it certifies.
``enumerate_tiny`` brute-forces the full action product space on horizons of
a few periods and grounds the oracle itself.

The backward pass copies the next period's values into one row between
-inf pads, and every move reads it through views built once per call: the
whole-step moves as stepped views, one add per arithmetic run of shifts, the
fractional full-power moves as blends of two views; the pads stand in for
moves off the grid. One reduction takes the maximum. The forward pass
re-evaluates every candidate from the actual SoC rather than replaying argmax
actions recorded on grid points: the fractional full-power move leaves the
grid, so the SoC a schedule reaches is generally not a grid point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    SOC_EPS,
    DataValidationError,
    PriceSeries,
    SoCGrid,
    StorageParams,
    check_initial_soc,
    check_soc_range,
)


@dataclass(frozen=True, eq=False)
class OracleResult:
    """Optimal profit and the feasible schedule that attains it."""

    optimal_profit: float
    discharge: np.ndarray
    charge: np.ndarray
    soc: np.ndarray  # length T+1, starting at the initial SoC


def _shift_counts(params: StorageParams, grid: SoCGrid, dt_hours: float) -> tuple[int, int]:
    """Largest whole-grid-step SoC moves within the power rating (down, up)."""
    eta = params.efficiency_one_way
    down = int(math.floor(params.power_rating * dt_hours / (eta * grid.step) + 1e-9))
    up = int(math.floor(params.power_rating * eta * dt_hours / grid.step + 1e-9))
    return min(down, grid.num_points - 1), min(up, grid.num_points - 1)


def _strided(k_max: int, levels: int) -> np.ndarray:
    """About ``levels`` whole-step shift counts from 1..k_max, always including k_max."""
    if k_max < 1:
        return np.empty(0, dtype=int)
    stride = max(1, int(math.ceil(k_max / levels)))
    ks = np.arange(stride, k_max + 1, stride)
    if ks.size == 0 or ks[-1] != k_max:
        ks = np.append(ks, k_max)
    return ks


def grid_dp_oracle(
    prices: PriceSeries,
    params: StorageParams,
    grid: SoCGrid,
    action_points: int = 21,
    initial_soc: float = 0.0,
) -> OracleResult:
    """Whole-horizon optimum by backward DP on the SoC grid.

    The action set per direction holds about ``action_points`` power levels
    whose SoC moves are whole grid steps (so value lookups are exact), plus
    the exact full-power move and the exact bound-reaching move. Discharge
    actions are dropped whenever the period price is negative. Memory is
    (T+1) x num_points for the stored value functions, plus one padded row
    and one row per move. The grid must span the storage's SoC range.
    """
    check_soc_range(grid.soc_min, grid.soc_max, params, "grid range")
    if action_points < 3:
        raise DataValidationError(f"action_points must be at least 3, got {action_points}")
    check_initial_soc(initial_soc, params)

    eta = params.efficiency_one_way
    c = params.discharge_cost
    big_p = params.power_rating
    lo, hi = params.soc_min, params.soc_max
    dt = prices.resolution_hours
    n = grid.num_points
    step = grid.step
    horizon = len(prices)
    pts = grid.points()

    k_down, k_up = _shift_counts(params, grid, dt)
    ks_down = _strided(k_down, action_points - 1)
    ks_up = _strided(k_up, action_points - 1)
    p_of_k, b_of_k = step * eta / dt, step / (eta * dt)  # power per whole-step move
    p_down = ks_down * p_of_k
    b_up = ks_up * b_of_k
    idx = np.arange(n)
    # Bound-reaching moves (exact SoC to the bound, power-feasible region only).
    floor_power = idx[idx * p_of_k <= big_p + 1e-12] * p_of_k
    ceil_power = (n - 1 - idx[(n - 1 - idx) * b_of_k <= big_p + 1e-12]) * b_of_k

    # Rows of ``moved``: floor-reach, full-power discharge, the whole-step moves
    # by shift (discharges, idle, charges), full-power charge, ceiling-reach. A
    # row with no move stays -inf; a negative price reduces from idle on.
    shifts = np.concatenate((-ks_down[::-1], [0], ks_up))
    idle = 2 + ks_down.size
    moved = np.full((shifts.size + 4, n), -np.inf)
    cash = np.zeros((horizon, shifts.size + 4))  # cash of each move in each period
    cash[:, 1] = (prices.values - c) * big_p * dt
    cash[:, 2:idle] = (prices.values - c)[:, None] * p_down[::-1] * dt
    cash[:, idle + 1 : -2] = -prices.values[:, None] * b_up * dt
    cash[:, -2] = -prices.values * big_p * dt
    # Level i of the next values is padded[n + i]; window[n + s] reads them s levels on.
    padded = np.full(3 * n, -np.inf)
    window = np.lib.stride_tricks.sliding_window_view(padded, n)
    runs = []  # (first row, end row, stepped view) per arithmetic run of shifts
    i = 0
    while i < shifts.size:
        j = i + 1
        gap = shifts[j] - shifts[i] if j < shifts.size else 1
        while j < shifts.size and shifts[j] - shifts[j - 1] == gap:
            j += 1
        at = n + shifts[i]
        runs.append((2 + i, 2 + j, window[at : at + gap * (j - i - 1) + 1 : gap]))
        i = j
    fractional = []  # (row, view weighted frac, view weighted 1 - frac, frac, cash)
    for r, shift, sign in ((1, big_p * dt / (eta * step), -1), (-2, big_p * eta * dt / step, 1)):
        base, frac = int(shift), shift % 1.0
        # A whole-step move is among the strided ones; a longer one fits no level.
        if frac > 1e-9 and shift <= n - 1:
            far, near = window[n + sign * (base + 1)], window[n + sign * base]
            fractional.append((moved[r], far, near, frac, cash[:, r]))
    floor_row, ceil_row = moved[0, : floor_power.size], moved[-1, n - ceil_power.size :]
    weighted = np.empty(n)

    values = np.zeros((horizon + 1, n))
    for t in range(horizon, 0, -1):
        price = float(prices.values[t - 1])
        padded[n : 2 * n] = values[t]
        for r0, r1, view in runs:
            np.add(view, cash[t - 1, r0:r1, None], out=moved[r0:r1])
        for row, far, near, frac, full_cash in fractional:
            np.multiply(far, frac, out=row)
            np.multiply(near, 1.0 - frac, out=weighted)
            row += weighted
            row += full_cash[t - 1]
        np.multiply(floor_power, (price - c) * dt, out=floor_row)
        floor_row += values[t, 0]
        np.multiply(ceil_power, -price * dt, out=ceil_row)
        ceil_row += values[t, n - 1]
        np.maximum.reduce(moved[0 if price >= 0.0 else idle :], axis=0, out=values[t - 1])

    # Forward re-evaluation from the actual SoC. The first maximum is taken over
    # idle; strided discharges, full-power discharge, floor-reach; strided charges,
    # full-power charge, ceiling-reach. Only the two bound-reaching powers vary.
    floor_slot = 2 + ks_down.size
    ceil_slot = floor_slot + ks_up.size + 2
    act_p, act_b = np.zeros(ceil_slot + 1), np.zeros(ceil_slot + 1)
    act_p[1:floor_slot] = np.append(p_down, big_p)
    act_b[floor_slot + 1 : ceil_slot] = np.append(b_up, big_p)
    split = floor_slot + 1  # candidates before it discharge (or idle), the rest charge
    move = np.concatenate((-(act_p[:split] * dt / eta), act_b[split:] * eta * dt))
    net, cost = act_p - act_b, c * act_p * dt
    e_next, totals = np.empty(move.size), np.empty(move.size)
    infeasible = np.empty(move.size, dtype=bool)
    down, up = e_next[:split], e_next[split:]
    too_low, too_high = infeasible[:split], infeasible[split:]

    e = min(max(float(initial_soc), lo), hi)
    discharge, charge, soc = np.zeros(horizon), np.zeros(horizon), np.full(horizon + 1, e)
    profits = []
    for t in range(horizon):
        price = float(prices.values[t])
        act_p[floor_slot] = net[floor_slot] = p_floor = min(big_p, (e - lo) * eta / dt)
        act_b[ceil_slot] = b_ceil = min(big_p, (hi - e) / (eta * dt))
        net[ceil_slot] = 0.0 - b_ceil
        cost[floor_slot] = c * p_floor * dt
        move[floor_slot] = -(p_floor * dt / eta)
        move[ceil_slot] = b_ceil * eta * dt
        np.add(move, e, out=e_next)
        # A discharge never rises above e <= hi, nor a charge falls below e >= lo.
        np.less(down, lo - SOC_EPS, out=too_low)
        np.greater(up, hi + SOC_EPS, out=too_high)
        if price < 0.0:
            too_low[1:] = True
        np.maximum(lo, down, out=down)
        np.minimum(hi, up, out=up)
        np.multiply(net, price, out=totals)
        totals *= dt
        totals -= cost
        totals += np.interp(e_next, pts, values[t + 1])
        totals[infeasible] = -np.inf
        best_i = int(totals.argmax())
        p, b, e = float(act_p[best_i]), float(act_b[best_i]), float(e_next[best_i])
        discharge[t], charge[t], soc[t + 1] = p, b, e
        profits.append(price * (p - b) * dt - c * p * dt)

    return OracleResult(
        optimal_profit=math.fsum(profits), discharge=discharge, charge=charge, soc=soc
    )


def enumerate_tiny(
    prices: PriceSeries,
    params: StorageParams,
    action_grid: int = 11,
    initial_soc: float = 0.0,
) -> float:
    """Exhaustive search over the full per-period action product space.

    Ground truth for the DP oracle on horizons of at most four periods; the
    guard exists because the search is exponential in the horizon.
    """
    horizon = len(prices)
    if horizon > 4:
        raise DataValidationError(f"horizon {horizon} too long to enumerate (max 4)")
    if not 2 <= action_grid <= 21:
        raise DataValidationError(f"action_grid must be in [2, 21], got {action_grid}")

    eta = params.efficiency_one_way
    c = params.discharge_cost
    dt = prices.resolution_hours
    levels = np.linspace(0.0, params.power_rating, action_grid)[1:]

    def actions(e: float, price: float) -> list[tuple[float, float]]:
        out = [(0.0, 0.0)]
        if price >= 0.0:
            for p in levels:
                if e - p * dt / eta >= params.soc_min - SOC_EPS:
                    out.append((float(p), 0.0))
            p_floor = min(params.power_rating, (e - params.soc_min) * eta / dt)
            if p_floor > 0.0:
                out.append((p_floor, 0.0))
        for b in levels:
            if e + b * eta * dt <= params.soc_max + SOC_EPS:
                out.append((0.0, float(b)))
        b_ceil = min(params.power_rating, (params.soc_max - e) / (eta * dt))
        if b_ceil > 0.0:
            out.append((0.0, b_ceil))
        return out

    def best_from(t: int, e: float) -> float:
        if t == horizon:
            return 0.0
        price = float(prices.values[t])
        best = -math.inf
        for p, b in actions(e, price):
            e2 = min(max(e - p * dt / eta + b * eta * dt, params.soc_min), params.soc_max)
            total = price * (p - b) * dt - c * p * dt + best_from(t + 1, e2)
            if total > best:
                best = total
        return best

    e0 = min(max(float(initial_soc), params.soc_min), params.soc_max)
    return best_from(0, e0)
