"""Storage valuation, bid design, and dispatch backtesting for electricity markets."""

from .bids import (
    BidSchedule,
    SoCBidCurve,
    bid_schedule,
    soc_bid,
)
from .dispatch import (
    ClearingResult,
    GeneratorOffer,
    InfeasibleMarketError,
    MarketInstance,
    StorageUnit,
    clear_soc_bid_ed,
)
from .model import (
    DataValidationError,
    DispatchDecision,
    PriceSeries,
    SoCGrid,
    StorageParams,
)
from .oracle import OracleResult, enumerate_tiny, grid_dp_oracle
from .simulate import (
    CASE_IDS,
    CaseConfig,
    SimulationResult,
    run_cases,
    run_schedule,
    step_soc_bid,
    utilization,
)
from .valuation import (
    ValueCurve,
    ValueSurface,
    backward_induct,
    segment_averages,
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
    "PriceSeries",
    "SimulationResult",
    "SoCBidCurve",
    "SoCGrid",
    "StorageParams",
    "StorageUnit",
    "ValueCurve",
    "ValueSurface",
    "backward_induct",
    "bid_schedule",
    "clear_soc_bid_ed",
    "enumerate_tiny",
    "grid_dp_oracle",
    "run_cases",
    "run_schedule",
    "segment_averages",
    "soc_bid",
    "step_soc_bid",
    "update_step",
    "utilization",
]

__version__ = "0.1.0"
