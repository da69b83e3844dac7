"""Canonical scenario library and config-driven scenario construction.

Each scenario builds a fresh world plus an executable bundle.  Replays are
deterministic: identical parameters produce byte-identical exported
traces.
"""

from __future__ import annotations

import json
import re
from functools import cache, partial
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Optional

from .amm import INTEGER, RATIONAL, AmmError, AssetId, NumericMode, \
    PoolState, amount_out, format_amount, parse_amount, solve_input_for_output
from .engine import (Action, Address, ExecutionTrace, FillLimitOrder,
                     FlashBorrow, FlashRepay, FlashSwapBorrow, FlashSwapRepay,
                     INFRA_LABELS, LimitOrderIntent, Swap, Transfer,
                     WorldState, execute_bundle)
from .numeric import REQUIRED, decimal_text, read, shown
from .planner import (ExtractionStyle, FundingPolicy, PlannerError,
                      RelocationPlan, build_relocation_bundle,
                      plan_relocation)


class ConfigError(Exception):
    """Scenario configuration failed validation."""


_SCENARIO_NAME = re.compile(r"[A-Za-z0-9_-][A-Za-z0-9_.-]{0,99}")


class ScenarioRun(NamedTuple):
    name: str
    world: WorldState
    bundle: list[Action]
    initiator: str
    principal: str | None = None
    beneficiary: str | None = None
    plan: Optional[RelocationPlan] = None

    def execute(self) -> tuple[WorldState, ExecutionTrace]:
        return execute_bundle(self.world, self.bundle, self.initiator,
                              bundle_id=self.name)


def _pool(pool_id: str, assets: tuple, reserves: tuple[str, str],
          fee_bps: int, mode: NumericMode) -> PoolState:
    """A pool whose reserves are amount texts of its two assets."""
    (x, y), (r0, r1) = assets, reserves
    return PoolState(pool_id, x, y, parse_amount(r0, x, mode),
                     parse_amount(r1, y, mode), fee_bps, mode)


# -- relocation scenarios ----------------------------------------------


def build_relocation_scenario(
        *, name: str = "relocation",
        mode: NumericMode = NumericMode.RATIONAL,
        fee_bps: int = 0,
        asset: AssetId = AssetId("TOKA", 18),
        counter: AssetId = AssetId("TOKB", 18),
        reserves1: tuple[str, str] = ("100", "100"),
        reserves2: tuple[str, str] = ("100", "100"),
        a: str = "10",
        operator_is_principal: bool = False,
        funding_policy: FundingPolicy =
        FundingPolicy.SHORTFALL_FROM_PRINCIPAL,
        extraction_style: ExtractionStyle = ExtractionStyle.FLASH_SWAP,
        x_override=None, y_override=None, target=None) -> ScenarioRun:
    """State-mediated relocation of `a` units of `asset` from P to B."""
    p_id, b_id, flash_id = "P", "B", "flash"
    o_id = p_id if operator_is_principal else "O"

    pool1 = _pool("pool1", (asset, counter), reserves1, fee_bps, mode)
    pool2 = _pool("pool2", (asset, counter), reserves2, fee_bps, mode)
    amount_a = parse_amount(a, asset, mode)

    world = WorldState(mode=mode)
    world.add_address(Address(p_id, "Principal"))
    world.add_address(Address(b_id, "Beneficiary"))
    if not operator_is_principal:
        world.add_address(Address(o_id, "Operator"))
    world.add_address(Address(flash_id, "FlashProvider"))
    world.add_pool(pool1)
    world.add_pool(pool2)
    world.set_balance(p_id, asset, amount_a)
    # flash inventory comfortably above any solvable flash amount
    world.set_balance(flash_id, asset,
                      pool1.reserve_of(asset) + pool2.reserve_of(asset))

    plan = plan_relocation(pool1, pool2, asset, p_id, b_id, o_id, amount_a,
                           flash_provider=flash_id,
                           funding_policy=funding_policy,
                           extraction_style=extraction_style,
                           target=target, x_override=x_override,
                           y_override=y_override)
    world.approve(p_id, o_id, asset, amount_a)
    bundle = build_relocation_bundle(plan, pool1, pool2)
    return ScenarioRun(name=name, world=world, bundle=bundle, initiator=o_id,
                       principal=p_id, beneficiary=b_id, plan=plan)


def build_calibrated_relocation_scenario(name: str = "relocation_fee_calibrated"
                                         ) -> ScenarioRun:
    """Fee-mode relocation over reserves recovered from the published
    migration observations, replayed in integer smallest units."""
    from .calibration import (PUBLISHED_OBSERVATIONS, calibrate_reserves,
                              integer_amounts)

    obs = PUBLISHED_OBSERVATIONS
    mode = INTEGER
    asset = AssetId("WETH", obs.asset_decimals)
    counter = AssetId("USDT", obs.counter_decimals)
    reserves1, reserves2, a, x, y = integer_amounts(calibrate_reserves(obs),
                                                    obs)

    def text(reserves):
        return tuple(format_amount(r, token)
                     for r, token in zip(reserves, (asset, counter)))

    return build_relocation_scenario(
        name=name, mode=mode, fee_bps=obs.fee_bps, asset=asset,
        counter=counter, reserves1=text(reserves1), reserves2=text(reserves2),
        a=format_amount(a, asset), x_override=x, y_override=y)


# -- PEB limit-order scenarios -----------------------------------------


def build_peb_scenario(*, name: str = "peb",
                       variant: str = "flash_loan",
                       making: str = "1000", taking: str = "990",
                       pool_reserves: tuple[str, str] = ("1000000",
                                                         "1000000"),
                       fee_bps: int = 30,
                       receiver: str = "B",
                       route_via_settlement: bool = True,
                       mode: NumericMode = NumericMode.RATIONAL
                       ) -> ScenarioRun:
    """Limit-order-mediated conversion with disjoint maker / filler /
    receiver roles; `variant` picks external flash liquidity or an AMM
    flash swap for the filler's float."""
    if variant not in ("flash_loan", "flash_swap"):
        raise ConfigError(f"unknown PEB variant {variant!r}")
    usd = AssetId("USDC", 6)
    dai = AssetId("DAI", 18)
    p_id, e_id, b_id, s_id, f_id, pool_id = \
        "P", "E", receiver, "settlement", "flash", "pool"

    pool = _pool(pool_id, (usd, dai), pool_reserves, fee_bps, mode)
    making_amt = parse_amount(making, usd, mode)
    taking_amt = parse_amount(taking, dai, mode)

    world = WorldState(mode=mode)
    world.add_address(Address(p_id, "Principal"))
    world.add_address(Address(e_id, "Executor"))
    if b_id not in (p_id, e_id):
        world.add_address(Address(b_id, "Beneficiary"))
    world.add_address(Address(s_id, "SettlementContract"))
    world.add_address(Address(f_id, "FlashProvider"))
    world.add_pool(pool)
    world.set_balance(p_id, usd, making_amt)
    world.set_balance(f_id, dai, pool.reserve_of(dai))

    order = LimitOrderIntent(maker=p_id, maker_asset=usd, taker_asset=dai,
                             making_amount=making_amt,
                             taking_amount=taking_amt,
                             receiver=b_id, settlement=s_id,
                             route_via_settlement=route_via_settlement)
    world.approve(p_id, s_id, usd, making_amt)

    # the filler's swap cost for sourcing exactly the taker amount
    repay_usdc = solve_input_for_output(pool, dai, taking_amt)
    if variant == "flash_loan":
        bundle = [
            FlashBorrow(f_id, e_id, dai, taking_amt),
            FillLimitOrder(order, e_id, making_amt),
            Swap(e_id, pool_id, usd, repay_usdc, e_id),
            FlashRepay(e_id, f_id, dai, taking_amt),
        ]
    else:
        bundle = [
            FlashSwapBorrow(pool_id, e_id, dai, taking_amt),
            FillLimitOrder(order, e_id, making_amt),
            FlashSwapRepay(pool_id, e_id, usd, repay_usdc),
        ]
    return ScenarioRun(name=name, world=world, bundle=bundle, initiator=e_id,
                       principal=p_id, beneficiary=b_id)


# -- benign counterfactuals --------------------------------------------


_RENAMEABLE_FIELDS = ("src", "dst", "owner", "spender", "caller",
                      "recipient", "provider", "borrower")


def _rename_action(act: Action, mapping: dict[str, str]) -> Action:
    return act._replace(**{name: mapping.get(value, value)
                           for name, value in zip(act._fields, act)
                           if name in _RENAMEABLE_FIELDS})


def build_benign_twin(run: ScenarioRun,
                      perturb: bool = False) -> ScenarioRun:
    """Ordinary-arbitrage counterpart of a relocation scenario.

    An unrelated trader funds the same loop from its own treasury and pays
    the proceeds to its own collection wallet; the transfer graph is
    structurally identical to the relocation's under label erasure.  With
    perturb=True one extra edge is appended as a negative control.
    """
    if run.plan is None:
        raise ConfigError("benign twin is defined for relocation scenarios")
    mapping = {run.principal: "treasury", run.initiator: "trader",
               run.beneficiary: "collect"}

    def rename(aid: str) -> str:
        return mapping.get(aid, aid)

    # a valid world's amounts need no check: its dicts are renamed as is
    world = WorldState(run.world.mode)
    world.pools = dict(run.world.pools)
    world.addresses = {
        rename(aid): Address(rename(aid), addr.label if addr.label
                             in INFRA_LABELS else "Unlabeled")
        for aid, addr in run.world.addresses.items()}
    world.balances = {(rename(aid), sym): amount
                      for (aid, sym), amount in run.world.balances.items()}
    world.allowances = {
        (rename(owner), rename(spender), sym): amount
        for (owner, spender, sym), amount in run.world.allowances.items()}
    bundle = [_rename_action(act, mapping) for act in run.bundle]
    if perturb:
        plan = run.plan
        half = plan.predicted_a_prime / 2 \
            if run.world.mode is RATIONAL \
            else plan.predicted_a_prime // 2
        bundle.append(Transfer(mapping[run.beneficiary], "sidecar",
                               plan.asset, half))
        world.add_address(Address("sidecar"))
    return ScenarioRun(name=run.name + ("_twin_perturbed" if perturb
                                        else "_twin"),
                       world=world, bundle=bundle,
                       initiator=mapping[run.initiator])


def build_benign_arbitrage(*, name: str = "benign_arbitrage",
                           mode: NumericMode = NumericMode.RATIONAL,
                           fee_bps: int = 0) -> ScenarioRun:
    """Plain two-pool arbitrage by an independent trader: same loop shape
    as a relocation's extraction phase, no migration behind it."""
    tok_a = AssetId("TOKA", 18)
    tok_b = AssetId("TOKB", 18)
    pool1 = _pool("pool1", (tok_a, tok_b), ("120", "100"), fee_bps, mode)
    pool2 = _pool("pool2", (tok_a, tok_b), ("100", "110"), fee_bps, mode)
    world = WorldState(mode=mode)
    world.add_address(Address("trader"))
    world.add_pool(pool1)
    world.add_pool(pool2)
    stake = parse_amount("5", tok_a, mode)
    world.set_balance("trader", tok_a, stake)
    out_b = amount_out(pool1, tok_a, stake)
    bundle = [
        Swap("trader", "pool1", tok_a, stake, "trader"),
        Swap("trader", "pool2", tok_b, out_b, "trader"),
    ]
    return ScenarioRun(name=name, world=world, bundle=bundle,
                       initiator="trader")


def build_benign_routing(*, name: str = "benign_routing",
                         mode: NumericMode = NumericMode.RATIONAL
                         ) -> ScenarioRun:
    """Multi-hop payment routing through intermediaries."""
    tok = AssetId("TOKA", 18)
    world = WorldState(mode=mode)
    for aid in ("alice", "hub1", "hub2", "carol"):
        world.add_address(Address(aid))
    amt = parse_amount("25", tok, mode)
    world.set_balance("alice", tok, amt)
    bundle = [
        Transfer("alice", "hub1", tok, amt),
        Transfer("hub1", "hub2", tok, amt),
        Transfer("hub2", "carol", tok, amt),
    ]
    return ScenarioRun(name=name, world=world, bundle=bundle,
                       initiator="alice")


# -- config files and the library -----------------------------------------


# each param's kind; a param a config leaves out takes the builder's default
_PARAMS = {"numeric_mode": NumericMode, "fee_bps": int, "a": decimal_text,
           "making": decimal_text, "taking": decimal_text, "receiver": str,
           "operator_is_principal": bool, "route_via_settlement": bool,
           "funding_policy": FundingPolicy,
           "extraction_style": ExtractionStyle}
_PEB_PARAMS = ("making", "taking", "fee_bps", "receiver",
               "route_via_settlement", "numeric_mode")
# recipe -> (builder, fixed arguments, params read, {pool id: argument});
# the builder is looked up by name, so a wrapper bench/spans.py puts on it
# sees each build
_RECIPES = {
    "RelocationZeroFee": (
        "build_relocation_scenario", {},
        ("numeric_mode", "fee_bps", "a", "operator_is_principal",
         "funding_policy", "extraction_style"),
        {"pool1": "reserves1", "pool2": "reserves2"}),
    "RelocationFeeCalibrated": ("build_calibrated_relocation_scenario", {},
                                (), {}),
    "PEBLimitOrder": ("build_peb_scenario", {"variant": "flash_loan"},
                      _PEB_PARAMS, {"pool": "pool_reserves"}),
    "PEBFlashSwapVariant": ("build_peb_scenario", {"variant": "flash_swap"},
                            _PEB_PARAMS, {"pool": "pool_reserves"}),
    "BenignArbitrage": ("build_benign_arbitrage", {},
                        ("numeric_mode", "fee_bps"), {}),
    "BenignRouting": ("build_benign_routing", {}, ("numeric_mode",), {}),
}
# the keys of every config, read first to find its recipe, whose table
# then reads the whole config again, params and pools included
_CONFIG = {"schema_version": ((1,), REQUIRED),
           "scenario": (str, REQUIRED),
           "recipe": (tuple(_RECIPES), REQUIRED), "params": (dict, {}),
           "pools": (list, [])}
_RECIPE_TABLES = {
    recipe: {**_CONFIG,
             "params": ({key: (_PARAMS[key], None) for key in params}, {}),
             "pools": ([{"id": (tuple(pools), REQUIRED),
                         "reserve0": (decimal_text, REQUIRED),
                         "reserve1": (decimal_text, REQUIRED)}], [])}
    for recipe, (_, _, params, pools) in _RECIPES.items()}


_QUOTED = re.compile(r"""'[^']*'|"[^"\\]*\"""")  # with no escape
# a line: indentation, then `- `, `key:`, value and comment, all optional
_LINE = re.compile(
    rf"""( *)(- +)?(?:({_QUOTED.pattern}|[^\s'"#{{\[-][^:#]*?):(?: +|$))?"""
    rf"""({_QUOTED.pattern}|[^\s'"#][^#]*?)?(?: *(?<!\S)#.*)? *""")
# true, false, an int of at most 78 digits, or words YAML 1.1 reads as str
_PLAIN = re.compile(r"(true|false)|([-+]?(?:0|[1-9][0-9]{0,77}))|(?!(?i:"
                    r"yes|no|on|off|true|false|null)$)[A-Za-z_][\w.-]*"
                    r"(?: +[\w.-]+)*", re.ASCII)


def _scalar(text: str, n: int, flow: bool = False):
    """A scalar, or (unless in a flow) a one-line flow of scalars."""
    if _QUOTED.fullmatch(text):
        return text[1:-1]
    if plain := _PLAIN.fullmatch(text):
        return text == "true" if plain[1] else int(text) if plain[2] else text
    if not flow and text[0] + text[-1] in ("{}", "[]"):
        items = [item.strip(" ") for item in text[1:-1].split(",")] \
            if text[1:-1].strip(" ") else []
        if text[0] == "[":
            return [_scalar(item, n, True) for item in items]
        pairs = {_scalar(key, n, True): _scalar(value.strip(" "), n, True)
                 for key, value in (item.split(": ", 1) for item in items
                                    if ": " in item)}
        if len(pairs) == len(items):  # no pair is missing or repeated
            return pairs
    raise ConfigError(f"line {n}: {shown(text)} is outside the YAML subset")


def _block(lines: list, i: int, depth: int = 1) -> tuple:
    """The mapping or list at lines[i] and the index of the line after it."""
    indent, dash = lines[i][1:3]
    node = {}  # a list's items by index
    while i < len(lines) and lines[i][1:3] == (indent, dash):
        n, _, _, key, value = lines[i]
        key, i = len(node) if dash else key, i + 1
        if key in node:
            raise ConfigError(f"line {n}: key {shown(key)} is repeated")
        if value is None:  # YAML's null, unless a block opens below
            if depth == 3 or i == len(lines) or lines[i][1] < indent or \
                    lines[i][1] == indent and (dash or not lines[i][2]):
                raise ConfigError(f"line {n}: no value, or one too deep")
            value, i = _block(lines, i, depth + 1)
        node[key] = value
    if depth == 1 and i < len(lines):
        raise ConfigError(f"line {lines[i][0]}: indentation opens no block")
    return list(node.values()) if dash else node, i


def _parse(text: str):
    """A config text as YAML 1.1 reads it: JSON, or else a block subset."""
    if text.lstrip()[:1] == "{":
        try:  # YAML 1.1 reads NaN, Infinity, 1e5 and 1.5e5 as strings
            return json.loads(text, parse_constant=str, parse_float=lambda t:
                              float(t) if re.fullmatch(
                                  r"-?\d+\.\d+(?:[eE][-+]\d+)?", t) else t)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    lines = []
    for n, line in enumerate(text.split("\n"), 1):
        match = _LINE.fullmatch(line.removesuffix("\r"))
        # printable is stricter than YAML: no tab, no line break but \n
        if not (match and match[0].isprintable()) or match[4] and not (
                match[2] or match[3]):
            raise ConfigError(f"line {n}: {shown(line.strip(' '))} is outside "
                              "the YAML subset")
        indent, dash, key, value = match.groups()
        if dash and key:  # a list item that opens a mapping
            lines.append((n, len(indent), "- ", None, None))
            indent, dash = indent + dash, None
        if dash or key:
            lines.append((n, len(indent), dash and "- ", key and _scalar(
                key, n), value and _scalar(value, n)))
    return _block(lines, 0)[0] if lines else None


def _build(data) -> ScenarioRun:
    """The run that a config, as read, describes."""
    try:
        config = read(_RECIPE_TABLES[read(_CONFIG, data)["recipe"]], data)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # the name becomes a directory under --out: no path syntax, no long name
    if not _SCENARIO_NAME.fullmatch(config["scenario"]):
        raise ConfigError(f"scenario {shown(config['scenario'])} is not 1-100 "
                          "letters, digits, '_', '-' and '.' (not first)")
    builder, fixed, _, pool_args = _RECIPES[config["recipe"]]
    kwargs = {"mode" if key == "numeric_mode" else key: value
              for key, value in config["params"].items() if value is not None}
    for entry in config["pools"]:
        argument = pool_args[entry["id"]]
        if argument in kwargs:
            raise ConfigError(f"pool {entry['id']} is listed twice")
        kwargs[argument] = (entry["reserve0"], entry["reserve1"])
    try:
        return globals()[builder](name=config["scenario"], **fixed, **kwargs)
    except (ValueError, AmmError, PlannerError) as exc:
        raise ConfigError(f"bad scenario parameters: {exc}") from exc


def load_scenario_config(config: str | bytes) -> ScenarioRun:
    """Build a scenario from a versioned config file, or from its bytes."""
    data = config if isinstance(config, bytes) else Path(config).read_bytes()
    try:  # \r\n and \r end a line, as in a text-mode read
        text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"not UTF-8 text: {exc}") from None
    return _build(_parse(text))


@cache  # the shipped configs are read once per process
def library() -> Mapping[str, Callable[[], ScenarioRun]]:
    """Each shipped scenario's name and its build from its config."""
    names = """relocation_sym relocation_asym relocation_operator_is_principal
        relocation_fee_calibrated peb_limit_order peb_flash_swap
        benign_arbitrage benign_routing""".split()  # the library's order
    rows = [_parse((Path(__file__).parent / "configs" / f"{name}.yaml")
                   .read_text(encoding="utf-8")) for name in names]
    return MappingProxyType({row["scenario"]: partial(_build, row)
                             for row in rows})
