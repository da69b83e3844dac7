"""The paper's claims over the scenario builders' parameter space.

Each test draws the existing builders' parameters, builds the scenario,
and asserts that the claim's predicate finds nothing violated.
"""

from hypothesis import assume, given, settings, strategies as st

from ammflow import claims
from ammflow.amm import NumericMode
from ammflow.planner import ExtractionStyle, FundingPolicy
from ammflow.scenarios import build_relocation_scenario

FEES = st.sampled_from([0, 5, 30, 100])


@st.composite
def relocations(draw):
    """`build_relocation_scenario` over reserves 50-5000 whole tokens and
    a <= pool 1's asset reserve / 10, in either numeric mode."""
    mode = draw(st.sampled_from(NumericMode))
    fee_bps = draw(FEES)
    # ROADMAP item 3: a rational fee-bearing extraction optimum leaves the
    # exact field, so rational mode plans only fee-free relocations
    assume(mode is NumericMode.INTEGER or fee_bps == 0)
    r = draw(st.lists(st.integers(50, 5000), min_size=4, max_size=4))
    return build_relocation_scenario(
        mode=mode, fee_bps=fee_bps,
        reserves1=(str(r[0]), str(r[1])), reserves2=(str(r[2]), str(r[3])),
        a=str(draw(st.integers(1, r[0] // 10))),
        operator_is_principal=draw(st.booleans()),
        funding_policy=draw(st.sampled_from(FundingPolicy)),
        extraction_style=draw(st.sampled_from(ExtractionStyle)))


@settings(max_examples=300, deadline=None)
@given(relocations())
def test_observer_gap(run):
    assert claims.observer_gap(run) == []


@settings(max_examples=300, deadline=None)
@given(relocations())
def test_twin_indistinguishable(run):
    assert claims.twin_indistinguishable(run) == []


@settings(max_examples=300, deadline=None)
@given(relocations())
def test_taint_divergence(run):
    assert claims.taint_divergence(run) == []


@settings(max_examples=300, deadline=None)
@given(mode=st.sampled_from(NumericMode), fee_bps=FEES,
       reserves=st.tuples(st.integers(10_000, 2_000_000),
                          st.integers(10_000, 2_000_000)),
       taking=st.integers(1, 20_000), margin=st.integers(0, 1000),
       route_via_settlement=st.booleans())
def test_flash_equivalence(mode, fee_bps, reserves, taking, margin,
                           route_via_settlement):
    # the filler pays the maker's USDC into the pool for the taker's DAI,
    # so the fill executes when making covers that swap's input: at most
    # r_usdc * taking / (r_dai - taking) / (1 - fee), and 2% covers a fee
    # up to 100 bps
    r_usdc, r_dai = reserves
    assume(taking <= r_dai // 2)
    making = -(-r_usdc * taking * 102 // ((r_dai - taking) * 100)) + margin
    assert claims.flash_equivalence(
        making=str(making), taking=str(taking),
        pool_reserves=(str(r_usdc), str(r_dai)), fee_bps=fee_bps,
        mode=mode, route_via_settlement=route_via_settlement) == []
