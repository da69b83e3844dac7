"""The library's records: tuples, checked tuples and slotted classes.

Actions, call records and graph edges are NamedTuples; `AssetId`,
`Address`, `LimitOrderIntent` and `ObservationSet` are NamedTuples whose
every construction runs the record's check; the mutable containers are
plain classes with `__slots__`.  Each takes its fields by position and by
keyword, with a default only where some caller leaves the field out.  A
field that takes one value is a class constant, not a parameter, and a
`WorldState` starts empty: its state is set through its methods.
"""

import re
from fractions import Fraction

import pytest

from ammflow.amm import AssetId, NumericMode
from ammflow.calibration import (CalibratedPools, ObservationSet,
                                 PUBLISHED_OBSERVATIONS)
from ammflow.engine import (Address, CallRecord, ExecutionTrace,
                            FillLimitOrder, FlashBorrow, FlashRepay,
                            FlashSwapBorrow, FlashSwapRepay, LimitOrderIntent,
                            Swap, Transfer, TransferFrom, WorldState)
from ammflow.graph import GraphEdge, TransferGraph
from ammflow.scenarios import ScenarioRun
from ammflow.semantic import MigrationReport
from conftest import TOKA

ORDER = LimitOrderIntent("P", TOKA, AssetId("DAI"), Fraction(10),
                         Fraction(9), "B", "settle")
WORLD = WorldState(NumericMode.RATIONAL)
OBSERVED = (("a", 10.0), ("x", 50.0), ("b", 150.0), ("x_prime", 49.0),
            ("b_prime", 140.0), ("y", 48.0), ("a_prime", 9.0))

# record, its required fields in order with a value each, its defaults
RECORDS = [
    (Transfer, (("src", "P"), ("dst", "B"), ("asset", TOKA),
                ("amount", Fraction(5))), {}),
    (TransferFrom, (("owner", "P"), ("spender", "E"), ("dst", "B"),
                    ("asset", TOKA), ("amount", 5)), {}),
    (Swap, (("caller", "E"), ("pool", "pool1"), ("input_asset", TOKA),
            ("amount_in", 5), ("recipient", "B")), {}),
    (FlashBorrow, (("provider", "F"), ("borrower", "E"), ("asset", TOKA),
                   ("amount", 5)), {}),
    (FlashRepay, (("borrower", "E"), ("provider", "F"), ("asset", TOKA),
                  ("amount", 5)), {}),
    (FlashSwapBorrow, (("pool", "pool1"), ("borrower", "E"),
                       ("asset", TOKA), ("amount", 5)), {}),
    (FlashSwapRepay, (("pool", "pool1"), ("borrower", "E"),
                      ("asset", TOKA), ("amount", 5)), {}),
    (FillLimitOrder, (("order", ORDER), ("filler", "E"),
                      ("fill_amount", Fraction(10))), {}),
    (CallRecord, (("action_index", 0), ("kind", "swap"), ("caller", "E"),
                  ("callee", "pool1")), {}),
    (GraphEdge, (("seq", 1), ("src", "P"), ("dst", "B"), ("amount", 5)),
     {}),
    (AssetId, (("symbol", "WETH"),), {"decimals": 18}),
    (Address, (("id", "P"),), {"label": "Unlabeled"}),
    (LimitOrderIntent, (("maker", "P"), ("maker_asset", TOKA),
                        ("taker_asset", AssetId("DAI")),
                        ("making_amount", Fraction(10)),
                        ("taking_amount", Fraction(9)), ("receiver", "B"),
                        ("settlement", "settle")),
     {"route_via_settlement": True}),
    (ObservationSet, OBSERVED,
     {"fee_bps": 30, "asset_decimals": 18, "counter_decimals": 6}),
    (WorldState, (("mode", NumericMode.INTEGER),), {}),
    (ExecutionTrace, (("bundle_id", "b"), ("initiator", "E")),
     {"events": [], "calls": []}),
    (TransferGraph, (("asset", TOKA), ("edges", [])), {}),
    (MigrationReport, (("migrations", []), ("roles", {"P": "Principal"}),
                       ("efficiency", 0.9), ("executor_profit", {}),
                       ("unresolved", [])), {}),
    (CalibratedPools, (("pool1_reserves", (1.0, 2.0)),
                       ("pool2_reserves", (3.0, 4.0))),
     {"residuals": {}}),
    (ScenarioRun, (("name", "s"), ("world", WORLD), ("bundle", []),
                   ("initiator", "E")),
     {"principal": None, "beneficiary": None, "plan": None}),
]
IDS = [record.__name__ for record, _, _ in RECORDS]


@pytest.mark.parametrize("record, required, defaults", RECORDS, ids=IDS)
def test_builds_by_position_and_keyword_with_defaults(record, required,
                                                      defaults):
    by_position = record(*(value for _, value in required))
    by_keyword = record(**dict(required))
    for built in (by_position, by_keyword):
        for name, value in required:
            assert getattr(built, name) is value
        for name, value in defaults.items():
            assert getattr(built, name) == value
    # a mutable default is fresh on every instance
    for name, value in defaults.items():
        if isinstance(value, (dict, list)):
            assert getattr(by_position, name) \
                is not getattr(by_keyword, name)
    if isinstance(by_position, tuple):
        assert record._fields == tuple(name for name, _ in required) \
            + tuple(defaults)
        assert by_position == by_keyword
    else:
        assert not hasattr(by_position, "__dict__")


# a record, its required fields, and the constant it holds in place of a
# parameter
CONSTANTS = [
    (MigrationReport, ([], {}, None, {}, []), "atomic", True),
    (CalibratedPools, ((1.0, 2.0), (3.0, 4.0)), "iterations", 0),
]


@pytest.mark.parametrize("record, required, name, value", CONSTANTS,
                         ids=[c[0].__name__ for c in CONSTANTS])
def test_constant_fields_take_no_argument(record, required, name, value):
    built = record(*required)
    assert getattr(built, name) is value
    with pytest.raises(TypeError):
        record(*required, **{name: value})
    with pytest.raises(AttributeError):
        setattr(built, name, value)


def test_world_starts_empty_with_fresh_dicts():
    worlds = WorldState(NumericMode.INTEGER), WorldState(NumericMode.INTEGER)
    for name in WorldState.__slots__[1:]:
        assert getattr(worlds[0], name) == {}
        assert getattr(worlds[0], name) is not getattr(worlds[1], name)


# values other than the defaults that the record's check accepts
OTHER_VALUES = {AssetId: {"decimals": 6}, Address: {"label": "Principal"},
                ObservationSet: {"fee_bps": 5, "asset_decimals": 8,
                                 "counter_decimals": 2}}


@pytest.mark.parametrize("record, required, defaults", RECORDS, ids=IDS)
def test_takes_every_field_by_position(record, required, defaults):
    others = OTHER_VALUES.get(record) or {name: object() for name in defaults}
    built = record(*(value for _, value in required), *others.values())
    for name, value in others.items():
        assert getattr(built, name) is value


class TestKeys:
    def test_asset_equality_and_hash(self):
        weth = AssetId("WETH", 18)
        assert weth == AssetId("WETH")
        assert not weth != AssetId("WETH")
        assert weth != AssetId("WETH", 6)
        assert weth != AssetId("USDT", 18)
        # the hash a frozen dataclass gave: that of its field tuple
        assert hash(weth) == hash(AssetId("WETH")) == hash(("WETH", 18))
        assert weth in (AssetId("USDT", 6), AssetId("WETH", 18))

    def test_address_equality_and_hash(self):
        p = Address("P", "Principal")
        assert p == Address("P", "Principal")
        assert p != Address("P")
        assert p != Address("Q", "Principal")
        assert Address("P") == Address("P", "Unlabeled")
        assert hash(p) == hash(Address("P", "Principal")) \
            == hash(("P", "Principal"))

    def test_dict_keys(self):
        table = {AssetId("WETH"): "w", AssetId("WETH", 6): "w6",
                 Address("P"): "p", Address("P", "Principal"): "pp"}
        assert len(table) == 4
        assert table[AssetId("WETH", 18)] == "w"
        assert table[AssetId("WETH", 6)] == "w6"
        assert table[Address("P", "Unlabeled")] == "p"
        assert table[Address("P", "Principal")] == "pp"
        assert AssetId("USDT") not in table


# a valid record, a field and a value its check refuses, the message
INVALID = [
    (AssetId("WETH"), "symbol", "", "asset symbol must be non-empty"),
    (AssetId("WETH"), "decimals", 39, "asset decimals must be in [0, 38]"),
    (AssetId("WETH"), "decimals", -1, "asset decimals must be in [0, 38]"),
    (AssetId("WETH"), "decimals", 18.5,
     "asset decimals must be an int, got 18.5"),
    (AssetId("WETH"), "decimals", True,
     "asset decimals must be an int, got True"),
    (Address("P"), "label", "Banker", "unknown label 'Banker'"),
    (ORDER, "making_amount", Fraction(0), "order amounts must be positive"),
    (ORDER, "taking_amount", -1, "order amounts must be positive"),
    (PUBLISHED_OBSERVATIONS, "x", -1.0, "observation x must be positive"),
    (PUBLISHED_OBSERVATIONS, "b", float("nan"),
     "observation b must be finite"),
    (PUBLISHED_OBSERVATIONS, "a_prime", float("inf"),
     "observation a_prime must be finite"),
    (PUBLISHED_OBSERVATIONS, "counter_decimals", 39,
     "counter_decimals must be in [0, 38]"),
    (PUBLISHED_OBSERVATIONS, "fee_bps", 10_000,
     "fee_bps must be in [0, 10000)"),
]


@pytest.mark.parametrize("valid, name, value, message", INVALID,
                         ids=[f"{type(v).__name__}.{n}={x!r}"
                              for v, n, x, _ in INVALID])
def test_check_runs_on_every_construction(valid, name, value, message):
    record = type(valid)
    values = [value if field == name else old
              for field, old in zip(record._fields, valid)]
    match = "^" + re.escape(message) + "$"
    with pytest.raises(ValueError, match=match):
        record(*values)
    with pytest.raises(ValueError, match=match):
        record(**dict(zip(record._fields, values)))
    with pytest.raises(ValueError, match=match):
        record._make(values)
    with pytest.raises(ValueError, match=match):
        valid._replace(**{name: value})
    assert record._make(valid) == valid
    assert type(valid._replace()) is record
