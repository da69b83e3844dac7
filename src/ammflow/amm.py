"""Constant-product pool arithmetic in two numeric modes.

Rational mode keeps reserves as exact ``QuadExact`` elements, of Q (the
degree-1 level, where every parsed amount starts and a caller's Fraction
enters) or of one quadratic field, and preserves the reserve product
exactly at zero fee.  Integer mode keeps reserves as big-integer smallest
units and floors every swap output, matching Uniswap-V2-style on-chain
semantics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from .numeric import (MAX_DECIMALS, ExactNumber, QuadExact, as_q, exact_div,
                      read_decimal)

BPS_DENOM = 10_000


class NumericMode(enum.Enum):
    RATIONAL = "rational"
    INTEGER = "integer"


RATIONAL, INTEGER = NumericMode  # globals: a member read is slow on 3.11
EXACT_TYPES = (int, Fraction, QuadExact)  # rational mode's amount types


def is_amount(value, mode: NumericMode) -> bool:
    """The one amount rule: an int in integer mode; an int, a Fraction or
    a QuadExact in rational mode.  Types match exactly, so a bool, a
    float or a str is never an amount."""
    return type(value) is int or (mode is RATIONAL
                                  and type(value) in EXACT_TYPES)


class AmmError(Exception):
    """Base class for pool math failures."""


class UnknownAsset(AmmError):
    pass


class ZeroInput(AmmError):
    pass


class OutputNotLessThanReserve(AmmError):
    pass


def checked(fields: type) -> type:
    """A subclass of the NamedTuple `fields`, under the same name, whose
    every construction runs `fields._check`: `_make` and `_replace` build
    through the constructor, so no instance skips the check."""

    class Record(fields):
        __slots__ = ()

        def __new__(cls, *args, **kwargs):
            self = super().__new__(cls, *args, **kwargs)
            self._check()
            return self

        _make = classmethod(lambda cls, values: cls(*values))

    Record.__name__ = Record.__qualname__ = fields.__name__
    Record.__module__ = fields.__module__
    return Record


@checked
class AssetId(NamedTuple):
    symbol: str
    decimals: int = 18

    def _check(self):
        if not self.symbol:
            raise ValueError("asset symbol must be non-empty")
        if type(self.decimals) is not int:  # a bool is no count either
            raise ValueError(
                f"asset decimals must be an int, got {self.decimals!r}")
        if not 0 <= self.decimals <= MAX_DECIMALS:
            raise ValueError(f"asset decimals must be in [0, {MAX_DECIMALS}]")


def parse_amount(text: str, asset: AssetId, mode: NumericMode):
    """Decimal amount text, read by `numeric.read_decimal` as trace amounts
    are, in the mode's representation: an element of Q in whole tokens, or
    smallest units, refusing an amount finer than the asset's decimals."""
    n, scale = read_decimal(text)
    if mode is RATIONAL:
        return QuadExact(n * 10 ** max(scale, 0)) / 10 ** max(-scale, 0)
    if scale + asset.decimals < 0:
        raise ValueError(
            f"{text} is finer than {asset.symbol}'s {asset.decimals} decimals")
    return n * 10 ** (scale + asset.decimals)


def format_amount(amount: int, asset: AssetId) -> str:
    """Render an integer amount of smallest units as a whole-token decimal
    string, split exactly by divmod, with no trailing zeros in the fraction
    and no fraction for a whole number of tokens."""
    whole, rest = divmod(abs(amount), 10 ** asset.decimals)
    text = f"{whole}.{rest:0{asset.decimals}d}".rstrip("0").rstrip(".")
    return "-" + text if amount < 0 else text


@dataclass(frozen=True)
class PoolState:
    pool_id: str
    asset0: AssetId
    asset1: AssetId
    reserve0: ExactNumber
    reserve1: ExactNumber
    fee_bps: int = 0
    mode: NumericMode = NumericMode.RATIONAL

    def __post_init__(self):
        # setattr keeps the attributes inline, where reads are fastest
        object.__setattr__(self, "reserve0", as_q(self.reserve0))
        object.__setattr__(self, "reserve1", as_q(self.reserve1))
        if not all(is_amount(r, self.mode) and r > 0
                   for r in (self.reserve0, self.reserve1)):
            raise ValueError(
                f"pool reserves must be positive {self.mode.value} amounts")
        if not 0 <= self.fee_bps < BPS_DENOM:
            raise ValueError("fee_bps out of range")

    @property
    def k(self):
        return self.reserve0 * self.reserve1

    def has_asset(self, asset: AssetId) -> bool:
        return asset in (self.asset0, self.asset1)

    def reserve_of(self, asset: AssetId):
        return self.sides(asset)[0]

    def sides(self, asset: AssetId) -> tuple:
        """(reserve of asset, reserve of the other asset), from one
        lookup; UnknownAsset if asset is foreign."""
        if asset == self.asset0:
            return self.reserve0, self.reserve1
        if asset == self.asset1:
            return self.reserve1, self.reserve0
        raise UnknownAsset(f"{asset.symbol} not in pool {self.pool_id}")

    def other_asset(self, asset: AssetId) -> AssetId:
        if asset == self.asset0:
            return self.asset1
        if asset == self.asset1:
            return self.asset0
        raise UnknownAsset(f"{asset.symbol} not in pool {self.pool_id}")

    def with_reserves(self, asset_in: AssetId, reserve_in,
                      reserve_out) -> "PoolState":
        """This pool with asset_in's reserve set to reserve_in and the
        other to reserve_out.  The copy skips `__post_init__`'s check, so
        the caller must pass positive reserves: a swap or flash swap of a
        valid pool by a positive amount yields them by construction."""
        new = object.__new__(PoolState)
        if type(reserve_in) is Fraction or type(reserve_out) is Fraction:
            reserve_in, reserve_out = as_q(reserve_in), as_q(reserve_out)
        if asset_in == self.asset0:
            new.__dict__.update(self.__dict__, reserve0=reserve_in,
                                reserve1=reserve_out)
        else:
            new.__dict__.update(self.__dict__, reserve0=reserve_out,
                                reserve1=reserve_in)
        return new


def _price(pool: PoolState, input_asset: AssetId, amount_in):
    """The one copy of the swap pricing and its checks: returns
    (r_in, out, r_out - out).  Like every pricing function here, it takes
    amount_in as an amount of the pool's mode and coerces nothing."""
    r_in, r_out = pool.sides(input_asset)  # UnknownAsset if foreign
    if amount_in <= 0:
        raise ZeroInput("swap input must be positive")
    integer = pool.mode is INTEGER
    # in*g*r_out / (r_in*D + in*g), g = D - fee: at zero fee g/D is 1
    fee = pool.fee_bps
    eff = amount_in * (BPS_DENOM - fee) if fee else amount_in
    num, den = eff * r_out, (r_in * BPS_DENOM if fee else r_in) + eff
    # r_in > 0, fee < D, amount_in > 0: den > eff > 0, so out < r_out
    out = num // den if integer else exact_div(num, den)
    return r_in, out, r_out - out


def amount_out(pool: PoolState, input_asset: AssetId,
               amount_in) -> ExactNumber:
    """Output of swapping amount_in of input_asset into the pool, without
    building the pool the swap would leave: the quote solvers probe."""
    return _price(pool, input_asset, amount_in)[1]


def swap_exact_in(pool: PoolState, input_asset: AssetId,
                  amount_in) -> tuple[ExactNumber, PoolState]:
    """Swap amount_in of input_asset into the pool; return (out, new pool)."""
    r_in, out, rest = _price(pool, input_asset, amount_in)
    return out, pool.with_reserves(input_asset, r_in + amount_in, rest)


def keeps_fee_adjusted_k(pool: PoolState, input_asset: AssetId, amount_in,
                         k_before) -> bool:
    """Whether paying amount_in of input_asset into pool keeps the
    fee-adjusted reserve product at k_before or above.

    Only the input net of the fee counts, as in the Uniswap V2 core
    whitepaper, section 2.3; a flash-swap repayment must pass this check.
    """
    r_in, r_out = pool.sides(input_asset)
    # (r_in + in*g/D) * r_out >= k_before, scaled by D with a fee
    if pool.fee_bps:
        r_in, k_before = r_in * BPS_DENOM, k_before * BPS_DENOM
        amount_in = amount_in * (BPS_DENOM - pool.fee_bps)
    return (r_in + amount_in) * r_out >= k_before


def solve_input_for_output(pool: PoolState, output_asset: AssetId,
                           amount_out) -> ExactNumber:
    """Minimal input whose swap yields at least amount_out of output_asset."""
    r_out, r_in = pool.sides(output_asset)  # UnknownAsset if foreign
    if amount_out <= 0:
        raise ZeroInput("requested output must be positive")
    if not r_out > amount_out:
        raise OutputNotLessThanReserve(
            f"cannot take {amount_out} from reserve {r_out}")
    integer = pool.mode is INTEGER
    # the swap yields at least amount_out exactly when
    # in*g*(r_out - out) >= out*r_in*D: the least such in is this
    # quotient, a ceiling in integer mode; D and g scale only with a fee
    num, den = r_in * amount_out, r_out - amount_out
    if pool.fee_bps:
        num, den = num * BPS_DENOM, den * (BPS_DENOM - pool.fee_bps)
    return -(-num // den) if integer else exact_div(num, den)


def spot_price(pool: PoolState, base_asset: AssetId) -> ExactNumber:
    """Quote-per-base reserve ratio (marginal price ignoring fees)."""
    r_base, r_quote = pool.sides(base_asset)
    return exact_div(r_quote, r_base)
