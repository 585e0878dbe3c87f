"""Independent certifiers for the multi-period perfect-foresight optimum.

``grid_dp_oracle`` solves the whole-horizon arbitrage problem by tabular
dynamic programming over the SoC grid with a discretized action set, using
linear interpolation of the value function, deliberately a different
numerical route from the analytical marginal-value recursion it certifies.
``enumerate_tiny`` brute-forces the full action product space on horizons of
a few periods and grounds the oracle itself.

The backward pass stacks the whole-step moves: each gets a row of source
indices, built once per call, so a period is one gather, one add and one
max over the rows; moves off the grid read a -inf sentinel column. The
full-power move, fractional in grid steps, and the bound-reaching moves are
folded in after. The forward pass re-evaluates every candidate from the
actual SoC rather than replaying argmax actions recorded on grid points:
the fractional full-power move leaves the grid, so the SoC a schedule
reaches is generally not a grid point.
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
    validate_params,
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
    (T+1) x num_points for the stored value functions. The grid must span
    the storage's SoC range.
    """
    validate_params(params)
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
    # Power per whole-step move, and the fractional remainder of a full-power move.
    p_of_k = step * eta / dt
    b_of_k = step / (eta * dt)
    down_full = big_p * dt / (eta * step)  # full-power discharge, in grid steps
    up_full = big_p * eta * dt / step
    p_down = ks_down * p_of_k
    b_up = ks_up * b_of_k

    idx = np.arange(n)
    # Bound-reaching moves (exact SoC to the bound, power-feasible region only).
    floor_reach = idx[idx * p_of_k <= big_p + 1e-12]
    floor_power = floor_reach * p_of_k
    ceil_reach = idx[(n - 1 - idx) * b_of_k <= big_p + 1e-12]
    ceil_power = (n - 1 - ceil_reach) * b_of_k

    # Stacked whole-step moves: idle, the charges, then the discharges, which
    # a negative price cuts off. Move r takes level i to level src[r, i];
    # column n of the value table is a -inf sentinel for moves off the grid.
    src = idx + np.concatenate(([0], ks_up, -ks_down))[:, None]
    src[(src < 0) | (src >= n)] = n
    no_discharge = 1 + ks_up.size
    cash = np.zeros((horizon, src.shape[0]))  # cash of each move in each period
    cash[:, 1:no_discharge] = -prices.values[:, None] * b_up * dt
    cash[:, no_discharge:] = (prices.values - c)[:, None] * p_down * dt

    values = np.empty((horizon + 1, n + 1))
    values[:, n] = -np.inf
    values[horizon, :n] = 0.0
    for t in range(horizon, 0, -1):
        price = float(prices.values[t - 1])
        nxt = values[t, :n]
        best = values[t - 1, :n]
        rows = src.shape[0] if price >= 0.0 else no_discharge
        moved = values[t].take(src[:rows])
        moved += cash[t - 1, :rows, None]
        np.maximum.reduce(moved, axis=0, out=best)
        if price >= 0.0:
            _apply_fractional(best, nxt, down_full, (price - c) * big_p * dt, -1)
            cand = (price - c) * dt * floor_power + nxt[0]
            np.maximum(best[floor_reach], cand, out=best[floor_reach])
        _apply_fractional(best, nxt, up_full, -price * big_p * dt, +1)
        cand = -price * dt * ceil_power + nxt[n - 1]
        np.maximum(best[ceil_reach], cand, out=best[ceil_reach])

    # Forward re-evaluation from the actual SoC. The first maximum is taken over
    # idle; strided discharges, full-power discharge, floor-reach; strided charges,
    # full-power charge, ceiling-reach. Only the two bound-reaching powers vary.
    floor_slot = 2 + ks_down.size
    ceil_slot = floor_slot + ks_up.size + 2
    act_p = np.zeros(ceil_slot + 1)
    act_b = np.zeros(ceil_slot + 1)
    act_p[1:floor_slot] = np.append(p_down, big_p)
    act_b[floor_slot + 1 : ceil_slot] = np.append(b_up, big_p)
    split = floor_slot + 1  # candidates before it discharge (or idle), the rest charge

    e = min(max(float(initial_soc), lo), hi)
    discharge = np.zeros(horizon)
    charge = np.zeros(horizon)
    soc = np.empty(horizon + 1)
    soc[0] = e
    profits = []
    for t in range(horizon):
        price = float(prices.values[t])
        act_p[floor_slot] = min(big_p, (e - lo) * eta / dt)
        act_b[ceil_slot] = min(big_p, (hi - e) / (eta * dt))
        e_next = np.concatenate((e - act_p[:split] * dt / eta, e + act_b[split:] * eta * dt))
        infeasible = (e_next < lo - SOC_EPS) | (e_next > hi + SOC_EPS)
        if price < 0.0:
            infeasible[1:split] = True
        e_arr = np.clip(e_next, lo, hi)
        totals = price * (act_p - act_b) * dt - c * act_p * dt
        totals += np.interp(e_arr, pts, values[t + 1, :n])
        totals[infeasible] = -np.inf
        best_i = int(np.argmax(totals))
        p, b, e = float(act_p[best_i]), float(act_b[best_i]), float(e_arr[best_i])
        discharge[t] = p
        charge[t] = b
        soc[t + 1] = e
        profits.append(price * (p - b) * dt - c * p * dt)

    return OracleResult(
        optimal_profit=math.fsum(profits), discharge=discharge, charge=charge, soc=soc
    )


def _apply_fractional(
    best: np.ndarray, nxt: np.ndarray, shift: float, cash: float, direction: int
) -> None:
    """Fold in the full-power action when its SoC move is not a whole grid step.

    ``shift`` is the move in grid-step units, ``direction`` -1 for discharge
    (SoC falls) and +1 for charge (SoC rises).
    """
    n = best.size
    base = int(math.floor(shift))
    frac = shift - base
    if frac <= 1e-9 or shift > n - 1:
        return  # whole-step moves are covered by the integer actions
    if direction < 0:
        i0 = base + 1
        vals = frac * nxt[: n - base - 1] + (1.0 - frac) * nxt[1 : n - base]
        np.maximum(best[i0:], cash + vals, out=best[i0:])
    else:
        i1 = n - 1 - (base + 1)  # last index that can move up by the full shift
        if i1 < 0:
            return
        vals = (1.0 - frac) * nxt[base : base + i1 + 1] + frac * nxt[base + 1 : base + i1 + 2]
        np.maximum(best[: i1 + 1], cash + vals, out=best[: i1 + 1])


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
    validate_params(params)
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
