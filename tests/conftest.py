import io
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction

import pytest

from ammflow.amm import AssetId, NumericMode, PoolState
from ammflow.cli import main
from ammflow.scenarios import library

TOKA = AssetId("TOKA", 18)
TOKB = AssetId("TOKB", 18)

# limit-order fills run in both flash variants:
# (making, taking, pool_reserves, fee_bps)
PEB_PARAMS = [
    ("1000", "990", ("1000000", "1000000"), 30),
    ("1000", "985", ("200000", "200000"), 30),
    ("1000", "990", ("1000000", "1000000"), 0),
    ("500", "490", ("1000000", "1000000"), 30),
    ("2500", "2450", ("1000000", "1000000"), 30),
    ("100", "98", ("50000", "50000"), 30),
    ("1000", "950", ("100000", "100000"), 30),
    ("1000", "990", ("1000000", "1500000"), 30),
    ("1000", "1980", ("1000000", "2000000"), 30),
    ("333", "329", ("750000", "750000"), 10),
    ("1000", "980", ("1000000", "1000000"), 100),
    ("12345", "12000", ("9000000", "9000000"), 30),
]


def make_pool(pool_id, r0, r1, fee_bps=0, mode=NumericMode.RATIONAL):
    return PoolState(pool_id, TOKA, TOKB, r0, r1, fee_bps, mode)


def library_relocations():
    """Fresh runs of the library's relocations: the runs with a plan."""
    runs = [make() for make in library().values()]
    return [run for run in runs if run.plan is not None]


@pytest.fixture
def sym_pool():
    """The symmetric 100/100 zero-fee fixture pool."""
    return make_pool("pool1", Fraction(100), Fraction(100))


@pytest.fixture
def sym_pools(sym_pool):
    return sym_pool, make_pool("pool2", Fraction(100), Fraction(100))


@dataclass
class CliResult:
    exit_code: int
    stdout: str
    stderr: str


@pytest.fixture
def cli():
    """Runs `ammflow <argv>` in this process: cli(argv) -> CliResult.

    An exception the command line does not turn into an exit status
    propagates, so a traceback fails the test.
    """
    def invoke(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv, standalone_mode=False)
        return CliResult(code, out.getvalue(), err.getvalue())
    return invoke


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # surface the one-line acceptance verdicts even when capture is on
    try:
        from test_acceptance import VERDICTS
    except ImportError:
        return
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)
