"""Storage valuation, bid design, and dispatch backtesting for electricity markets."""

from .bids import (
    BidSchedule,
    PowerBid,
    SoCBidCurve,
    bid_schedule_from_prices,
    make_power_bids,
    make_soc_bids,
)
from .dispatch import (
    ClearingResult,
    GeneratorOffer,
    InfeasibleMarketError,
    MarketInstance,
    StorageUnit,
    clear_power_bid_ed,
    clear_soc_bid_ed,
)
from .model import (
    DataValidationError,
    DispatchDecision,
    PriceSeries,
    SoCGrid,
    StorageParams,
    validate_params,
)
from .oracle import OracleResult, enumerate_tiny, grid_dp_oracle
from .simulate import (
    CASE_IDS,
    CaseConfig,
    SimulationResult,
    run_case,
    run_schedule,
    step_power_bid,
    step_soc_bid,
    utilization,
)
from .valuation import (
    ValueCurve,
    ValueSurface,
    average_marginal,
    backward_induct,
    update_step,
)

__all__ = [
    "BidSchedule",
    "CASE_IDS",
    "CaseConfig",
    "ClearingResult",
    "DataValidationError",
    "DispatchDecision",
    "GeneratorOffer",
    "InfeasibleMarketError",
    "MarketInstance",
    "OracleResult",
    "PowerBid",
    "PriceSeries",
    "SimulationResult",
    "SoCBidCurve",
    "SoCGrid",
    "StorageParams",
    "StorageUnit",
    "ValueCurve",
    "ValueSurface",
    "average_marginal",
    "backward_induct",
    "bid_schedule_from_prices",
    "clear_power_bid_ed",
    "clear_soc_bid_ed",
    "enumerate_tiny",
    "grid_dp_oracle",
    "make_power_bids",
    "make_soc_bids",
    "run_case",
    "run_schedule",
    "step_power_bid",
    "step_soc_bid",
    "update_step",
    "utilization",
    "validate_params",
]

__version__ = "0.1.0"
