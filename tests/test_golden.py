"""Byte-identity of the library run directories.

Each digest covers every file of one `ammflow simulate` run directory:
its relative path and its bytes, in sorted path order.  A digest changes
only when an output byte changes, so a change that is meant to keep the
outputs must leave this table alone.
"""

import hashlib

from click.testing import CliRunner

from ammflow.cli import main
from ammflow.scenarios import library

GOLDEN = {
    "benign_arbitrage":
        "6b6741d6740d7e573d9bec851b94fc574bb94d615648ec35a40fbd3e22c47b3a",
    "benign_routing":
        "f61ade17b5d407d6614282e57467c559c568a93d3bef8ad245c038dda0c21766",
    "peb_flash_swap":
        "21c0ff55f13b577cf1806e7f6aabe401a78d39396e3ec2e079171714e6299d1c",
    "peb_limit_order":
        "a6d56fe29cfc84f0c6adb38a951c4c7d58fd6be037ab5487ace1d7606880a6ea",
    "relocation_asym_zero_fee":
        "7fa7852e7288a1ce58dc70a8f9833f016b5676e3c202fcb8c2eeeb333d277d11",
    "relocation_fee_calibrated":
        "95413518674275dddb7206242abef52301a797566e77e4f37d1b38f5b0e08d87",
    "relocation_operator_is_principal":
        "89d75a1eb8335e2f0dfbfa6a1aaec79d0135574bcf5d784729d58c9441effe02",
    "relocation_sym_zero_fee":
        "f66b6d2c0722503934bb7674349d935a9d2506c61860f9ceec475ef8cec08fb4",
}


def run_digest(run_dir) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(run_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def test_library_run_directories_match_golden_digests(tmp_path):
    assert sorted(library()) == sorted(GOLDEN)
    out = tmp_path / "runs"
    result = CliRunner().invoke(main, ["simulate", *sorted(GOLDEN),
                                       "--out", str(out)])
    assert result.exit_code == 0, result.output
    digests = {name: run_digest(out / name) for name in GOLDEN}
    assert digests == GOLDEN
