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
the engine.
"""

import hashlib
import json
import random
from fractions import Fraction

from ammflow.amm import AssetId, NumericMode, PoolState, format_amount
from ammflow.engine import execute_bundle, trace_to_json
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
