import hashlib
from datetime import timedelta

import numpy as np
import pytest

from socbid import (
    DataValidationError, PriceSeries, SoCBidCurve, SoCGrid, StorageParams, step_soc_bid,
)
from socbid.bids import _interp_plan, _segment_means
from socbid.valuation import (
    StepCase,
    ValueCurve,
    ValueSurface,
    _cell_edges,
    _shift_plan,
    _step_values,
    average_marginal,
    backward_induct,
    segment_averages,
    step_case_breakdown,
    update_step,
)

from conftest import START, hourly_series, random_monotone_values


# ---------------------------------------------------------------------------
# Independent oracle: enumerate the single-period problem exactly, then
# recover the marginal value by finite differences. The next-period value
# function is the integral of the tabulated curve read as a step function, a
# piecewise-linear concave function; with a linear cash term, every optimum
# sits at one of its kinks, at a power/SoC bound, or at the idle point, so
# enumerating exactly those targets solves the problem with no action grid.
# ---------------------------------------------------------------------------

def enumerated_value_function(q_values, grid, price, params, dt, kinks=None):
    """V(e_i) = max over single feasible actions of cash plus next value."""
    pts = grid.points()
    edges = np.empty(pts.size + 1)
    edges[0] = grid.soc_min
    edges[-1] = grid.soc_max
    edges[1:-1] = 0.5 * (pts[1:] + pts[:-1])
    q_int = np.concatenate([[0.0], np.cumsum(np.asarray(q_values) * np.diff(edges))])
    eta = params.efficiency_one_way
    c = params.discharge_cost
    big_p = params.power_rating
    if kinks is None:
        kinks = edges

    reach_down = big_p * dt / eta
    reach_up = big_p * eta * dt
    extremes = np.stack(
        [np.maximum(grid.soc_min, pts - reach_down), np.minimum(grid.soc_max, pts + reach_up)]
    ).T
    targets = np.concatenate(
        [np.broadcast_to(kinks, (pts.size, kinks.size)), extremes, pts[:, None]], axis=1
    )
    de = pts[:, None] - targets  # positive = discharge
    p = np.where(de > 0, de * eta / dt, 0.0)
    b = np.where(de < 0, -de / (eta * dt), 0.0)
    feasible = (p <= big_p + 1e-12) & (b <= big_p + 1e-12)
    if price < 0:
        feasible &= p == 0.0
    cash = price * (p - b) * dt - c * p * dt
    value = np.interp(targets, edges, q_int) + cash
    return np.where(feasible, value, -np.inf).max(axis=1)


def oracle_marginal(q_values, grid, price, params, dt=1.0):
    v = enumerated_value_function(q_values, grid, price, params, dt)
    return np.gradient(v, grid.step)


def jump_tolerance(reference, step):
    """Two grid steps times the local slope, plus float slack."""
    diffs = np.abs(np.diff(reference))
    local = np.maximum(np.concatenate([[0.0], diffs]), np.concatenate([diffs, [0.0]]))
    return 2.0 * local + 1e-6


# ---------------------------------------------------------------------------
# Closed-form single steps (flat zero next curve)
# ---------------------------------------------------------------------------

def test_update_step_discharge_regimes(micro_params, unit_grid):
    curve = update_step(ValueCurve.flat(unit_grid), 20.0, micro_params, 1.0)
    pts = unit_grid.points()
    full_shift = micro_params.power_rating / micro_params.efficiency_one_way  # 0.555..
    expected = np.where(pts < full_shift - 1e-12, (20.0 - 10.0) * 0.9, 0.0)
    np.testing.assert_allclose(curve.values, expected, atol=1e-12)


def test_update_step_idle_band(micro_params, unit_grid):
    curve = update_step(ValueCurve.flat(unit_grid), 5.0, micro_params, 1.0)
    np.testing.assert_allclose(curve.values, 0.0, atol=1e-12)


def test_update_step_negative_price_charging(micro_params, unit_grid):
    curve = update_step(ValueCurve.flat(unit_grid), -5.0, micro_params, 1.0)
    pts = unit_grid.points()
    headroom = 1.0 - micro_params.power_rating * micro_params.efficiency_one_way  # 0.55
    expected = np.where(pts <= headroom + 1e-12, 0.0, -5.0 / 0.9)
    np.testing.assert_allclose(curve.values, expected, atol=1e-12)


@pytest.mark.parametrize("price", [20.0, 5.0, -5.0])
def test_update_step_matches_enumeration_on_flat_curve(price, micro_params, unit_grid):
    q0 = np.zeros(unit_grid.num_points)
    got = update_step(ValueCurve(unit_grid, q0), price, micro_params, 1.0).values
    want = oracle_marginal(q0, unit_grid, price, micro_params)
    assert np.all(np.abs(got - want) <= jump_tolerance(got, unit_grid.step))


def test_update_step_rejects_non_monotone_input(unit_grid, micro_params):
    values = np.zeros(unit_grid.num_points)
    values[10] = -5.0  # dip then rise back to 0
    with pytest.raises(DataValidationError, match="non-increasing"):
        update_step(ValueCurve(unit_grid, values), 20.0, micro_params, 1.0)


@pytest.mark.parametrize(
    "price, dt, power",
    [(np.nan, 1.0, 1.0), (np.inf, 1.0, 1.0), (20.0, 0.0, 1.0), (20.0, -1.0, 1.0),
     (20.0, np.inf, 1.0), (20.0, 1.0, -1.0), (-np.inf, 1.0, 1.0), (20.0, np.nan, 1.0),
     pytest.param(20.0, 1.0, StorageParams(1.0, 2.0), id="grid-off-range")],
)
def test_step_functions_share_their_input_checks(price, dt, power):
    # ``power`` rates a 4 MWh unit, which a negative power fails in StorageParams,
    # or is a whole unit whose SoC range the 4 MWh grid and bid do not span
    curve = ValueCurve.flat(SoCGrid(0.0, 4.0, 41), 20.0)
    bid = SoCBidCurve([0.0, 4.0], [40.0], [20.0])
    steps = (
        lambda unit: update_step(curve, price, unit, dt),
        lambda unit: step_case_breakdown(curve, price, unit, dt),
        lambda unit: step_soc_bid(2.0, price, bid, unit, dt),
    )
    for step in steps:
        with pytest.raises(DataValidationError):
            step(power if isinstance(power, StorageParams) else StorageParams(power, 4.0, 0.9, 10.0))


@pytest.mark.parametrize("hours", [np.nan, np.inf, 0.0])
def test_value_surface_step_must_be_positive_and_finite(hours, unit_grid):
    with pytest.raises(DataValidationError, match="step_hours"):
        ValueSurface(unit_grid, hours, np.zeros((2, unit_grid.num_points)))


def test_update_step_case_boundaries_prefer_charging(micro_params, unit_grid):
    # At a price exactly on a case boundary the earlier-listed case fires;
    # values coincide there, so only the label is observable.
    q = ValueCurve.flat(unit_grid, 10.0)
    cases = step_case_breakdown(q, 10.0 * 0.9, micro_params, 1.0)  # price == q*eta
    interior = cases[unit_grid.num_points // 2]
    assert interior in (StepCase.FULL_CHARGE, StepCase.PARTIAL_CHARGE)


# ---------------------------------------------------------------------------
# Properties on random monotone curves
# ---------------------------------------------------------------------------

def test_monotonicity_preserved_on_random_curves(micro_params, unit_grid):
    rng = np.random.default_rng(42)
    for _ in range(300):
        vals = random_monotone_values(rng, unit_grid.num_points)
        price = rng.uniform(-60, 150)
        out = update_step(ValueCurve(unit_grid, vals), price, micro_params, 1.0).values
        assert np.all(np.diff(out) <= 1e-9 * (1 + np.abs(out).max()))


def test_no_discharge_case_at_negative_prices(micro_params, unit_grid):
    rng = np.random.default_rng(43)
    for _ in range(200):
        vals = random_monotone_values(rng, unit_grid.num_points)
        price = -rng.uniform(0.0001, 100)
        cases = step_case_breakdown(ValueCurve(unit_grid, vals), price, micro_params, 1.0)
        assert not np.any(cases == StepCase.PARTIAL_DISCHARGE)
        assert not np.any(cases == StepCase.FULL_DISCHARGE)


def test_update_step_matches_enumeration_on_random_curves(micro_params):
    grid = SoCGrid(0.0, 1.0, 201)
    rng = np.random.default_rng(44)
    for _ in range(60):
        vals = random_monotone_values(rng, grid.num_points)
        price = rng.uniform(-40, 120)
        got = update_step(ValueCurve(grid, vals), price, micro_params, 1.0).values
        want = oracle_marginal(vals, grid, price, micro_params)
        assert np.all(np.abs(got - want) <= jump_tolerance(got, grid.step))


def test_idle_band_is_a_fixed_point(micro_params, unit_grid):
    # price strictly inside (q*eta, q/eta + c) everywhere leaves the curve alone
    vals = np.full(unit_grid.num_points, 8.0)
    curve = ValueCurve(unit_grid, vals)
    for price in (7.3, 10.0, 18.8):  # q*eta = 7.2, q/eta + c = 18.88
        out = update_step(curve, price, micro_params, 1.0)
        np.testing.assert_array_equal(out.values, vals)


# ---------------------------------------------------------------------------
# Backward induction
# ---------------------------------------------------------------------------

def test_backward_two_period_tape(micro_params, unit_grid):
    surface = backward_induct(hourly_series([5.0, 30.0]), micro_params, unit_grid)
    assert surface.horizon == 2
    pts = unit_grid.points()
    full_shift = micro_params.power_rating / micro_params.efficiency_one_way
    expected1 = np.where(pts < full_shift - 1e-12, 18.0, 0.0)
    np.testing.assert_allclose(surface.values[1], expected1, atol=1e-12)
    expected0 = update_step(ValueCurve(unit_grid, surface.values[1]), 5.0, micro_params, 1.0).values
    np.testing.assert_array_equal(surface.values[0], expected0)


def test_backward_two_period_matches_enumeration(micro_params):
    # Hop 2 (price 30 on the flat terminal) is pinned in closed form above;
    # here the enumeration oracle certifies hop 1 on the same intermediate
    # curve the backward pass produced, isolating each hop's correctness.
    grid = SoCGrid(0.0, 1.0, 201)
    surface = backward_induct(hourly_series([5.0, 30.0]), micro_params, grid)
    want = oracle_marginal(surface.values[1], grid, 5.0, micro_params)
    got = surface.values[0]
    assert np.all(np.abs(got - want) <= jump_tolerance(got, grid.step))


def test_saturated_terminal_caps_everything(micro_params, unit_grid):
    # With a huge flat terminal value M the unit charges everywhere; the
    # marginal value stays M wherever a full-power charge fits, and drops to
    # the saved charging cost (price/eta) where the SoC cap binds instead.
    big = ValueCurve.flat(unit_grid, 1000.0)
    surface = backward_induct(hourly_series([40.0]), micro_params, unit_grid, terminal=big)
    pts = unit_grid.points()
    headroom = 1.0 - micro_params.power_rating * micro_params.efficiency_one_way
    expected = np.where(pts <= headroom + 1e-12, 1000.0, 40.0 / 0.9)
    np.testing.assert_allclose(surface.values[0], expected)
    want = oracle_marginal(big.values, unit_grid, 40.0, micro_params)
    assert np.all(np.abs(surface.values[0] - want) <= jump_tolerance(surface.values[0], unit_grid.step))


def test_no_arbitrage_at_cost_price(micro_params, unit_grid):
    surface = backward_induct(hourly_series([10.0] * 5), micro_params, unit_grid)
    for t in range(6):
        np.testing.assert_allclose(surface.values[t], 0.0, atol=1e-12)


def test_backward_rejects_empty_series(micro_params, unit_grid):
    with pytest.raises((DataValidationError, ValueError)):
        backward_induct(hourly_series([]), micro_params, unit_grid)


# ---------------------------------------------------------------------------
# Averaging
# ---------------------------------------------------------------------------

def test_average_marginal_examples(micro_params, unit_grid):
    curve = update_step(ValueCurve.flat(unit_grid), 20.0, micro_params, 1.0)
    # quantization budget: half a grid cell of the 9-valued region
    budget = unit_grid.step * 9.0
    assert average_marginal(curve, 0.0, 1.0) == pytest.approx(5.0, abs=budget)
    assert average_marginal(curve, 0.0, 0.5) == pytest.approx(9.0, abs=1e-9)
    assert average_marginal(curve, 0.5, 1.0) == pytest.approx(1.0, abs=2 * budget)


def test_average_marginal_matches_dense_riemann_sum(micro_params, unit_grid):
    curve = update_step(ValueCurve.flat(unit_grid), 20.0, micro_params, 1.0)
    lo, hi = 0.1, 0.93

    def nearest_lookup(e):
        # nearest grid point; an exact midpoint goes to the lower one
        return curve.values[int(np.ceil((e - unit_grid.soc_min) / unit_grid.step - 0.5))]

    xs = np.linspace(lo, hi, 10 * unit_grid.num_points)
    riemann = np.mean([nearest_lookup(x) for x in xs])
    assert average_marginal(curve, lo, hi) == pytest.approx(riemann, abs=0.01)


def test_average_marginal_degenerate_range(unit_grid):
    curve = ValueCurve.flat(unit_grid, 3.0)
    with pytest.raises(DataValidationError, match="degenerate"):
        average_marginal(curve, 0.5, 0.5)
    with pytest.raises(DataValidationError):
        average_marginal(curve, -0.2, 0.5)


def test_segment_averages_reject_boundaries_off_the_grid_or_out_of_order():
    curve = ValueCurve.flat(SoCGrid(0.0, 1.0, 101), 10.0)
    with pytest.raises(DataValidationError, match="leaves the grid"):
        segment_averages(curve, np.array([-1.0, 0.5]))
    with pytest.raises(DataValidationError, match="degenerate"):
        segment_averages(curve, np.array([0.5, 0.2]))
    with pytest.raises(DataValidationError, match="at least two"):
        segment_averages(curve, np.array([0.5]))
    edge = 1.0 + 1e-10  # within the float tolerance at the top of the grid
    assert segment_averages(curve, np.array([0.0, edge])) == pytest.approx([10.0])


def test_segment_averages_partition_exactly(unit_grid):
    rng = np.random.default_rng(45)
    vals = random_monotone_values(rng, unit_grid.num_points)
    curve = ValueCurve(unit_grid, vals)
    bounds = np.linspace(0.0, 1.0, 11)
    segs = segment_averages(curve, bounds)
    whole = average_marginal(curve, 0.0, 1.0)
    assert float(np.sum(segs * np.diff(bounds))) == pytest.approx(whole, abs=1e-12)


def test_block_segment_means_repeat_interp_bit_for_bit():
    # Reference: one np.interp call per row. Boundaries on cell edges, on
    # grid points and just past both ends; rows opening with negative zeros.
    rng = np.random.default_rng(21)
    grid = SoCGrid(0.0, 4.0, 41)
    edges = _cell_edges(grid)
    boundaries = np.concatenate(([-1e-12], np.linspace(0.0, 4.0, 81)[1:-1], [4.0 + 1e-12]))
    assert np.isin(boundaries, edges).sum() > 10
    rows = np.stack([random_monotone_values(rng, grid.num_points) for _ in range(30)])
    rows[:10, :20] = -0.0
    expected = np.stack(
        [
            np.diff(np.interp(boundaries, edges, np.r_[0.0, np.cumsum(row * np.diff(edges))]))
            / np.diff(boundaries)
            for row in rows
        ]
    )
    # The block is integrated and reduced with the SoC axis first: one column per row,
    # written here into the transpose of a row-per-period table, as a bid table is.
    cum = np.zeros((edges.size, rows.shape[0]))
    np.cumsum((rows * np.diff(edges)).T, axis=0, out=cum[1:])
    table = np.empty_like(expected)
    means = _segment_means(_interp_plan(edges, boundaries), cum, table.T)
    assert means.shape == (boundaries.size - 1, rows.shape[0])
    assert table.tobytes() == expected.tobytes()
    # segment_averages reads one curve with np.interp itself: the same bits
    for row, row_means in zip(rows[10:], table[10:]):
        assert segment_averages(ValueCurve(grid, row), boundaries).tobytes() == row_means.tobytes()


# ---------------------------------------------------------------------------
# Pinned bits on the recursion's edge cases
# ---------------------------------------------------------------------------

def _runs(*pairs):
    """A terminal curve made of flat runs: (value, length) pairs, values falling."""
    return np.concatenate([np.full(length, float(v)) for v, length in pairs])


HOUR, FIVE_MINUTES = timedelta(hours=1), timedelta(minutes=5)

EDGE_CASES = {
    # 1 h storage on an hourly tape: the down shift (1111 levels) is wider
    # than the grid and the up shift (900) leaves a 101-level prefix.
    "wide-down-short-up": (
        StorageParams(1.0, 1.0, 0.9, 10.0), SoCGrid(0.0, 1.0, 1001), HOUR,
        _runs((40, 300), (25, 301), (0, 200), (-20, 200)),
        "ad2be6ec3dedd0d519e20e71847af1f8a089228a2130fb440674ef0c96ba2b10",
    ),
    # Unfloored, the gather step emits row 31 as [30.0, 30.000000000000004];
    # this digest floors each step to its running minimum, as the recursion does.
    "two-points": (
        StorageParams(0.5, 1.0, 0.9, 10.0), SoCGrid(0.0, 1.0, 2), HOUR,
        _runs((30, 1), (-5, 1)),
        "2d6963d4ea0e6d7cf313fd9ef77e333809aab29db0d92c300d695d3f4656adb0",
    ),
    "three-points": (
        StorageParams(0.5, 1.0, 0.9, 10.0), SoCGrid(0.0, 1.0, 3), HOUR,
        _runs((25, 2), (0, 1)),
        "3bc3109ab18ad94a94ca1fb929064ede11ec7cf7e4146de8c1e0772223ed9e98",
    ),
    # A full-power charge overshoots the whole 3-point grid.
    "three-points-up-off-grid": (
        StorageParams(5.0, 1.0, 0.9, 0.0), SoCGrid(0.0, 1.0, 3), HOUR,
        _runs((25, 1), (-0.0, 2)),
        "5d7a16b5d030b2a238e4d4528a3999331a90950915521f23c38c3b37b04aae6a",
    ),
    "five-minutes-301-points": (
        StorageParams(1.0, 4.0, 0.85, 5.0), SoCGrid(0.0, 4.0, 301), FIVE_MINUTES,
        _runs((60, 50), (35, 100), (-0.0, 51), (-30, 100)),
        "8db8c7750036d467853c58d198233ea81eb0200a64632f7a7d0328cbe7e493d2",
    ),
}


def _edge_tape(params, terminal, rng):
    """Prices tying the step thresholds of ``terminal``, zeros of both signs, negatives."""
    eta, c = params.efficiency_one_way, params.discharge_cost
    ties = [price for q in np.unique(terminal) for price in (q * eta, max(q / eta + c, 0.0))]
    noise = rng.choice([-12.5, -0.0, 0.0, 9.0, 31.0, 58.0], size=24)
    return np.concatenate((noise, [0.0, -0.0, -7.5, 500.0], ties))


@pytest.mark.parametrize("name", list(EDGE_CASES))
def test_recursion_bits_are_pinned_on_edge_cases(name):
    # Digests recorded with the gather-and-nested-where step the slice
    # kernel replaced (floored for two-points): surfaces, then labels at
    # every tie of three curves.
    params, grid, resolution, terminal, expected = EDGE_CASES[name]
    rng = np.random.default_rng(7)
    series = PriceSeries("Z", START, resolution, _edge_tape(params, terminal, rng))
    end = ValueCurve(grid, terminal)
    surface = backward_induct(series, params, grid, terminal=end)
    digest = hashlib.sha256(surface.values.tobytes())
    rows = (surface.values[len(series) - 1], surface.values[0])
    for curve in (end, *(ValueCurve(grid, row) for row in rows)):
        for price in _edge_tape(params, curve.values, rng)[24:]:
            labels = step_case_breakdown(curve, price, params, series.resolution_hours)
            digest.update(labels.tobytes())
    assert digest.hexdigest() == expected


# ---------------------------------------------------------------------------
# Reference step: the gather-and-nested-where kernel the slice kernel
# replaced, kept here only to check the kernel against it byte for byte.
# ---------------------------------------------------------------------------

def reference_nearest_shift(delta, direction):
    snapped = round(delta)
    if abs(delta - snapped) <= 1e-9:
        return int(snapped)
    if direction > 0:
        return int(np.ceil(delta - 0.5))
    return int(np.floor(delta + 0.5))


def reference_step(q, price, params, step, dt):
    """Values and labels of one step: gathered shifted curves, ±inf off the grid, nested where."""
    eta = params.efficiency_one_way
    c = params.discharge_cost
    n = q.size
    up = params.power_rating * eta * dt / step
    down = params.power_rating * dt / (eta * step)
    idx = np.arange(n)
    up_index = np.minimum(idx + reference_nearest_shift(up, +1), n - 1)
    down_index = np.maximum(idx - reference_nearest_shift(down, -1), 0)
    q_up = np.where(idx + up <= (n - 1) + 1e-9, q[up_index], -np.inf)
    q_down = np.where(idx - down >= -1e-9, q[down_index], np.inf)
    bands = [
        price <= q_up * eta,
        price <= q * eta,
        price <= np.maximum(q / eta + c, 0.0),
        price <= np.maximum(q_down / eta + c, 0.0),
    ]
    out = np.where(
        bands[0], q_up,
        np.where(bands[1], price / eta,
                 np.where(bands[2], q, np.where(bands[3], (price - c) * eta, q_down))),
    )
    return out, np.select(bands, list(StepCase)[:4], StepCase.FULL_DISCHARGE)


def test_slice_step_repeats_the_gather_step_byte_for_byte():
    rng = np.random.default_rng(2028)
    wide = 0
    for _ in range(300):
        n = int(np.exp(rng.uniform(np.log(2.0), np.log(10_000.0))))
        grid = SoCGrid(0.0, float(rng.choice([1.0, 4.0, 7.3])), n)
        eta = float(rng.choice([1.0, 0.9, rng.uniform(0.6, 1.0)]))
        dt = float(rng.choice([1.0, 1.0 / 12.0, rng.uniform(0.01, 3.0)]))
        # the charge shift in levels: none, a midpoint tie, anything up to past the grid
        levels = rng.choice([0.2, rng.integers(1, 4) + 0.5, rng.uniform(0.0, 1.6 * n)])
        power = max(float(levels), 0.05) * grid.step / (eta * dt)
        params = StorageParams(power, grid.soc_max, eta, float(rng.choice([0.0, 10.0, 3.7])))
        wide += power * dt / (eta * grid.step) > n
        q = random_monotone_values(rng, n)
        q[q == 0.0] = rng.choice([0.0, -0.0])
        c = params.discharge_cost
        ties = [q[rng.integers(n)] * eta, max(q[rng.integers(n)] / eta + c, 0.0)]
        plan = _shift_plan(n, params, grid.step, dt)
        for price in ties + [0.0, -0.0, rng.uniform(-60.0, 150.0)]:
            want_values, want_labels = reference_step(q, float(price), params, grid.step, dt)
            values = _step_values(q, float(price), params, plan)
            labels = step_case_breakdown(ValueCurve(grid, q), float(price), params, dt)
            # the gather step can rise by an ulp where two regimes meet
            assert values.tobytes() == np.minimum.accumulate(want_values).tobytes()
            assert labels.dtype == want_labels.dtype
            assert labels.tobytes() == want_labels.tobytes()
            curve = update_step(ValueCurve(grid, q), float(price), params, dt)
            assert curve.values.tobytes() == values.tobytes()
    assert wide > 10


@pytest.mark.parametrize("name", list(EDGE_CASES))
def test_every_emitted_curve_is_exactly_non_increasing(name):
    params, grid, resolution, terminal, _ = EDGE_CASES[name]
    tape = _edge_tape(params, terminal, np.random.default_rng(7))
    series = PriceSeries("Z", START, resolution, tape)
    surface = backward_induct(series, params, grid, terminal=ValueCurve(grid, terminal))
    assert np.all(np.diff(surface.values, axis=1) <= 0)
    # Replay each step from the row after it; the unfloored gather step may rise.
    plan = _shift_plan(grid.num_points, params, grid.step, series.resolution_hours)
    rises = 0
    for t, price in enumerate(series.values):
        q = surface.values[t + 1]
        assert _step_values(q, float(price), params, plan).tobytes() == surface.values[t].tobytes()
        gathered, _ = reference_step(q, float(price), params, grid.step, series.resolution_hours)
        rises += bool(np.any(np.diff(gathered) > 0))
    assert rises > 0 if name == "two-points" else rises == 0


def test_a_curve_rising_within_tolerance_is_read_as_its_running_minimum():
    params = StorageParams(0.3, 1.0, 0.9, 10.0)
    grid = SoCGrid(0.0, 1.0, 41)
    rng = np.random.default_rng(11)
    exact = np.round(random_monotone_values(rng, grid.num_points) / 5.0) * 5.0
    # every level but the first of a plateau rises 1e-10 relative above it
    bumped = exact + 1e-10 * (1.0 + np.abs(exact)) * np.r_[False, np.diff(exact) == 0]
    assert np.any(np.diff(bumped) > 0)
    assert np.array_equal(np.minimum.accumulate(bumped), exact)
    tape = PriceSeries("Z", START, HOUR, rng.choice([-10.0, 0.0, 20.0, 45.0, 90.0], size=48))
    surfaces = [
        backward_induct(tape, params, grid, terminal=ValueCurve(grid, end)).values
        for end in (bumped, exact)
    ]
    assert surfaces[0].tobytes() == surfaces[1].tobytes()
    for price in [0.0, *bumped * 0.9, *(bumped / 0.9 + 10.0)]:  # ties of both curves
        curves = [ValueCurve(grid, q) for q in (bumped, exact)]
        steps = [update_step(curve, price, params, 1.0).values for curve in curves]
        assert steps[0].tobytes() == steps[1].tobytes()
        labels = [step_case_breakdown(curve, price, params, 1.0) for curve in curves]
        assert labels[0].tobytes() == labels[1].tobytes()
