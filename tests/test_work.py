"""Work counts that must not rise unnoticed, pinned in `WORK.json`.

`src_lines` is the number of lines (as `wc -l` counts them) in
`src/ammflow/*.py`.  A change that adds lines fails here until it raises
the pin and says why in CHANGES.md; a change that removes lines lowers
the pin, so the next one cannot spend them silently.
"""

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def src_lines() -> int:
    return sum(path.read_bytes().count(b"\n")
               for path in (ROOT / "src" / "ammflow").glob("*.py"))


def test_src_lines_within_pin():
    pin = json.loads((ROOT / "WORK.json").read_text())["src_lines"]
    assert src_lines() <= pin, (
        f"src/ammflow holds {src_lines()} lines, above the pin of {pin} "
        "in WORK.json")
