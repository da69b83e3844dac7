"""Deterministic AMM bundle simulator and transfer-forensics toolkit."""

from .amm import AssetId, NumericMode, PoolState, amount_out, \
    solve_input_for_output, spot_price, swap_exact_in
from .engine import (Address, ExecutionTrace, LimitOrderIntent, WorldState,
                     execute_bundle, net_deltas)
from .planner import (ExtractionStyle, FundingPolicy, RelocationPlan,
                      build_relocation_bundle, max_extractable,
                      plan_relocation, solve_extraction, solve_flash_amount)

__all__ = [
    "AssetId", "NumericMode", "PoolState", "amount_out", "swap_exact_in",
    "solve_input_for_output", "spot_price", "Address", "WorldState",
    "LimitOrderIntent", "ExecutionTrace", "execute_bundle", "net_deltas",
    "RelocationPlan", "FundingPolicy", "ExtractionStyle", "plan_relocation",
    "solve_flash_amount", "solve_extraction", "max_extractable",
    "build_relocation_bundle",
]

__version__ = "0.1.0"
