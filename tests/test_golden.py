"""Byte-identity of the library run directories and of seeded plans.

Each library digest covers every file of one `ammflow simulate` run
directory: its relative path and its bytes, in sorted path order.  A
digest changes only when an output byte changes, so a change that is
meant to keep the outputs must leave this table alone.

The library runs pass `x_override` and `y_override` (integer) or take
the zero-fee undo (rational), so they never reach the integer flash
bisection, the extraction optimum or the target roots.
`PLANNER_DIGEST` pins those through seeded plans, and `ENGINE_DIGEST`
pins the traces and final reserves of seeded relocations executed by
the engine.  `OUTCOME_DIGEST` pins the engine on seeded random bundles
of every action kind: each outcome, accepted or refused, to the byte.
"""

import hashlib
import json
import random
from fractions import Fraction

from ammflow.amm import (AssetId, NumericMode, PoolState, format_amount,
                         is_amount)
from ammflow.engine import (Address, FillLimitOrder, FlashBorrow, FlashRepay,
                            FlashSwapBorrow, FlashSwapRepay, LimitOrderIntent,
                            Swap, Transfer, TransferFrom, WorldState,
                            execute_bundle, trace_to_json)
from ammflow.numeric import QuadExact
from ammflow.planner import PlannerError, plan_relocation
from ammflow.scenarios import build_relocation_scenario, library

GOLDEN = {
    "benign_arbitrage":
        "6b6741d6740d7e573d9bec851b94fc574bb94d615648ec35a40fbd3e22c47b3a",
    "benign_routing":
        "f61ade17b5d407d6614282e57467c559c568a93d3bef8ad245c038dda0c21766",
    "peb_flash_swap":
        "064291e6f7a80ddfd8f02600560ae368086762d374598c57701bbd7c4f36a55d",
    "peb_limit_order":
        "a619b3e60622af1fd23831a23d5167934373ae88588509e20d0ef9069c9461ef",
    "relocation_asym_zero_fee":
        "882f2015636034bea56063b3bb61909b76798c36c3b5591ef779e9a3075d15a4",
    "relocation_fee_calibrated":
        "7d810ca72f405b8cad423237abc28b3e1cfed5d7191a7b20a82c2c341779636b",
    "relocation_operator_is_principal":
        "d79adff6e1e2344802a8f457ce2cef85b99f0ba9b6c8f90ce847a0282df76e37",
    "relocation_sym_zero_fee":
        "383207e6c43bc63b3ae1e6e28abc66c2889aebad9fca56577d72bc1ea50f396f",
}


def run_digest(run_dir) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(run_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def test_library_run_directories_match_golden_digests(cli, tmp_path):
    assert sorted(library()) == sorted(GOLDEN)
    out = tmp_path / "runs"
    result = cli(["simulate", *sorted(GOLDEN), "--out", str(out)])
    assert result.exit_code == 0, result.stderr
    digests = {name: run_digest(out / name) for name in GOLDEN}
    assert digests == GOLDEN


PLANNER_DIGEST = \
    "264ebcf46744890d855deaa97c29df438e7ddb7b2169b761cb89545d3f35ca93"


def seeded_plan_inputs():
    """(pool1, pool2, asset, a, target) for 200 integer and 200 rational
    zero-fee plans; every other plan asks for a target.

    Integer inputs have the shape of the published migration record: an
    18-decimal asset against a 6-decimal counter, 30 bps, pools within
    1.5% of one price.  Rational inputs draw reserves in 50-5000 and
    a <= reserve/10; their target is a, the double root.
    """
    rng = random.Random(20_260_117)
    weth, usdt = AssetId("WETH", 18), AssetId("USDT", 6)
    eth, usd = 10 ** 18, 10 ** 6
    for i in range(200):
        price = rng.uniform(1000, 4000)
        ra1 = rng.randint(500 * eth, 5000 * eth)
        ra2 = rng.randint(100 * eth, 1000 * eth)
        price2 = price * (1 + rng.uniform(-0.015, 0.015))
        rb1 = int(ra1 * price) * usd // eth
        rb2 = int(ra2 * price2) * usd // eth
        a = rng.randint(1 * eth, 20 * eth)
        yield (PoolState("pool1", weth, usdt, ra1, rb1, 30,
                         NumericMode.INTEGER),
               PoolState("pool2", weth, usdt, ra2, rb2, 30,
                         NumericMode.INTEGER),
               weth, a, a * rng.randint(1, 9) // 10 if i % 2 else None)
    toka, tokb = AssetId("TOKA", 18), AssetId("TOKB", 18)
    for i in range(200):
        r = [Fraction(rng.randint(50, 5000)) for _ in range(4)]
        a = Fraction(rng.randint(1, int(r[0]) // 10))
        yield (PoolState("pool1", toka, tokb, r[0], r[1]),
               PoolState("pool2", toka, tokb, r[2], r[3]),
               toka, a, a if i % 2 else None)


def test_seeded_plans_match_planner_digest():
    h = hashlib.sha256()
    for pool1, pool2, asset, a, target in seeded_plan_inputs():
        try:
            plan = plan_relocation(pool1, pool2, asset, "P", "B", "O", a,
                                   target=target)
        except PlannerError as exc:
            record = [type(exc).__name__]
        else:
            record = [plan.to_dict(), str(plan.extraction_out),
                      str(plan.b_prime)]
        h.update(json.dumps(record).encode() + b"\0")
    assert h.hexdigest() == PLANNER_DIGEST


ENGINE_DIGEST = \
    "d99499c750a3cbc0bad5dcaad04cb2572fb6a0ac18e90cfe2ce621a0131ea9e2"


def seeded_relocations():
    """`build_relocation_scenario` options for 200 rational zero-fee
    relocations with reserves in 50-5000 and a <= reserve/10, then 100
    integer 30 bps relocations of an 18-decimal asset against a 6-decimal
    counter, pools within 1.5% of one price: the shapes of the benchmark's
    `sweep_rational` and `fee_integer` inputs."""
    rng = random.Random(20_261_019)
    for _ in range(200):
        r = [rng.randint(50, 5000) for _ in range(4)]
        yield dict(reserves1=(str(r[0]), str(r[1])),
                   reserves2=(str(r[2]), str(r[3])),
                   a=str(rng.randint(1, r[0] // 10)))
    mode, weth, usdt = NumericMode.INTEGER, AssetId("WETH", 18), \
        AssetId("USDT", 6)
    eth, usd = 10 ** 18, 10 ** 6
    for _ in range(100):
        price = rng.uniform(1000, 4000)
        price2 = price * (1 + rng.uniform(-0.015, 0.015))
        ra1 = rng.randint(500 * eth, 5000 * eth)
        ra2 = rng.randint(100 * eth, 1000 * eth)
        rb1 = int(ra1 * price) * usd // eth
        rb2 = int(ra2 * price2) * usd // eth
        yield dict(mode=mode, fee_bps=30, asset=weth, counter=usdt,
                   reserves1=(format_amount(ra1, weth),
                              format_amount(rb1, usdt)),
                   reserves2=(format_amount(ra2, weth),
                              format_amount(rb2, usdt)),
                   a=format_amount(rng.randint(1 * eth, 20 * eth), weth))


def test_seeded_executions_match_engine_digest():
    """Each relocation's executed trace and final pool reserves."""
    h = hashlib.sha256()
    for options in seeded_relocations():
        run = build_relocation_scenario(**options)
        after, trace = execute_bundle(run.world, run.bundle, run.initiator)
        reserves = [[str(pool.reserve0), str(pool.reserve1)]
                    for _, pool in sorted(after.pools.items())]
        h.update(trace_to_json(trace, run.world.mode).encode()
                 + json.dumps(reserves).encode() + b"\0")
    assert h.hexdigest() == ENGINE_DIGEST


OUTCOME_DIGEST = \
    "dd57db5327a11c830202cafab9dc234095e95967006ce8f659aac3c1c2c7696d"


class RoutedSwap(Swap):
    """A subclass of an action kind, which the engine runs as its base."""


def seeded_bundles():
    """(world, bundle) for 1,000 integer then 1,000 rational random bundles
    of 1-4 action groups over two pools, five addresses and three assets
    (TOKC trades in no pool).  Every action kind appears, with fills routed
    and unrouted, flash swaps, over-repayments, a `Swap` subclass, a str,
    and amounts that are zero, negative or of a type the mode refuses;
    rational amounts are ints, Fractions and QuadExacts of Q and of
    Q(sqrt 2).  About a third of the bundles are accepted."""
    rng = random.Random(20_261_020)
    assets = tuple(AssetId(sym, 18) for sym in ("TOKA", "TOKB", "TOKC"))
    addrs = ("A", "B", "C", "F", "S")
    for mode in (NumericMode.INTEGER, NumericMode.RATIONAL):
        rational = mode is NumericMode.RATIONAL

        def good(top=60):
            n = rng.randint(1, top)
            if not rational:
                return n
            return rng.choice((n, Fraction(n, rng.randint(1, 7)),
                               QuadExact(n), QuadExact(n, Fraction(1, 3), 2)))

        def amount():
            if rng.random() < 0.98:
                return good()
            return rng.choice((0, -3, True, 2.5, "7", Fraction(-1, 2),
                               Fraction(3, 2), QuadExact(2)))

        for _ in range(1000):
            world = WorldState(mode)
            for aid, label in zip(addrs, ("Principal", "Executor",
                                          "Operator", "FlashProvider",
                                          "SettlementContract")):
                world.add_address(Address(aid, label))
            for pid in ("p1", "p2"):
                r0, r1 = (rng.randint(40, 400) for _ in range(2))
                if rational and rng.random() < 0.3:
                    r0 = QuadExact(r0, 1, 2)
                world.add_pool(PoolState(pid, assets[0], assets[1], r0, r1,
                                         rng.choice((0, 30)), mode))
            for aid in addrs:  # some balances and allowances left absent
                for asset in assets:
                    if rng.random() < 0.95:
                        world.set_balance(aid, asset, good(400))
                    for spender in ("S", "C"):
                        if rng.random() < 0.8:
                            world.approve(aid, spender, asset, good(200))
            bundle = []
            for _ in range(rng.randint(1, 4)):
                bundle.extend(random_actions(rng, addrs, assets, amount,
                                             good))
            yield world, bundle


def random_actions(rng, addrs, assets, amount, good):
    """One or two actions of a random kind; a flash borrow brings its
    repayment (under, exact or over) most of the time."""
    def who():
        return rng.choice(addrs)

    def asset():
        return rng.choice(assets[:2] if rng.random() < 0.9 else assets)

    def pool():
        return rng.choice(("p1", "p2") * 9 + ("p3",))

    kind = rng.choice((0, 0, 1, 2, 3, 4, 4, 6, 6, 8, 8, 8, 9) * 3 + (5, 7))
    if kind == 0:
        return [Transfer(who(), who(), asset(), amount())]
    if kind == 1:
        return [TransferFrom(who(), rng.choice(("S", "C")), who(), asset(),
                             amount())]
    if kind in (2, 3):
        swap = RoutedSwap if kind == 3 else Swap
        return [swap(who(), pool(), asset(), amount(), who())]
    if kind == 4:
        borrow = FlashBorrow("F", who(), asset(), amount())
        if rng.random() < 0.1:
            return [borrow]
        repay = borrow.amount
        if type(repay) is int and rng.random() < 0.4:
            repay += rng.choice((-1, 1, 5))  # under- or over-repay
        return [borrow, FlashRepay(borrow.borrower, "F", borrow.asset, repay)]
    if kind == 5:
        return [FlashRepay(who(), "F", asset(), amount())]
    if kind == 6:
        borrow = FlashSwapBorrow(pool(), who(), asset(), amount())
        if rng.random() < 0.1:
            return [borrow]
        back = borrow.asset if rng.random() < 0.8 else asset()
        extra = rng.choice((0, 1, 2, 30))
        repay = borrow.amount + extra if back is borrow.asset \
            and is_amount(borrow.amount, NumericMode.RATIONAL) else amount()
        return [borrow, FlashSwapRepay(borrow.pool, borrow.borrower, back,
                                       repay)]
    if kind == 7:
        return [FlashSwapRepay(pool(), who(), asset(), amount())]
    if kind == 8:
        making = good() if rng.random() < 0.97 else Fraction(5, 2)
        order = LimitOrderIntent(who(), asset(), asset(), making, good(),
                                 who(), "S", rng.random() < 0.5)
        fill = making if rng.random() < 0.5 else amount()
        return [FillLimitOrder(order, who(), fill)]
    if rng.random() < 0.2:
        return [rng.choice(("transfer", ("A", "B", assets[0], 1)))]
    return [Transfer(who(), who(), asset(), amount())]


def test_seeded_bundles_match_outcome_digest():
    """Each random bundle's trace, final balances, allowances and reserves
    in the engine's own order, with every amount's type; or the type and
    message of the exception that refused it."""
    h = hashlib.sha256()
    for world, bundle in seeded_bundles():
        try:
            after, trace = execute_bundle(world, bundle, "C")
        except Exception as exc:  # noqa: BLE001 - the refusal is the outcome
            record = [type(exc).__name__, str(exc)]
        else:
            record = [trace_to_json(trace, world.mode),
                      [[type(ev.amount).__name__] for ev in trace.events],
                      *([[*key, str(v), type(v).__name__]
                         for key, v in table.items()]
                        for table in (after.balances, after.allowances)),
                      [[pid, str(pool.reserve0), str(pool.reserve1),
                        type(pool.reserve0).__name__,
                        type(pool.reserve1).__name__]
                       for pid, pool in after.pools.items()]]
        h.update(json.dumps(record).encode() + b"\0")
    assert h.hexdigest() == OUTCOME_DIGEST
