"""Byte-identity of the library run directories.

Each digest covers every file of one `ammflow simulate` run directory:
its relative path and its bytes, in sorted path order.  A digest changes
only when an output byte changes, so a change that is meant to keep the
outputs must leave this table alone.
"""

import hashlib

from ammflow.scenarios import library

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
