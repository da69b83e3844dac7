"""Work counts that must not rise unnoticed, pinned in `WORK.json`.

`src_lines` is the number of lines (as `wc -l` counts them) in
`src/ammflow/*.py`.  A change that adds lines fails here until it raises
the pin and says why in CHANGES.md; a change that removes lines lowers
the pin, so the next one cannot spend them silently.
`cli_import_modules` is the number of modules that importing
`ammflow.cli` adds to a fresh interpreter started without `site`; it
fences the cold start of every `ammflow` command the same way.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINS = json.loads((ROOT / "WORK.json").read_text())

# what `simulate` runs on: `claims` is for `selftest` alone, and `yaml`
# is imported only to read a config file
SIMULATE_MODULES = {"ammflow", "ammflow.amm", "ammflow.calibration",
                    "ammflow.cli", "ammflow.engine", "ammflow.graph",
                    "ammflow.numeric", "ammflow.planner",
                    "ammflow.scenarios", "ammflow.semantic"}


def src_lines() -> int:
    return sum(path.read_bytes().count(b"\n")
               for path in (ROOT / "src" / "ammflow").glob("*.py"))


def test_src_lines_within_pin():
    pin = PINS["src_lines"]
    assert src_lines() <= pin, (
        f"src/ammflow holds {src_lines()} lines, above the pin of {pin} "
        "in WORK.json")


def test_cold_cli_import_loads_what_simulate_uses():
    code = (f"import sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n"
            "before = set(sys.modules)\nimport ammflow.cli\n"
            "print(*sorted(set(sys.modules) - before))\n")
    loaded = subprocess.run([sys.executable, "-S", "-c", code],
                            capture_output=True, text=True,
                            check=True).stdout.split()
    assert {name for name in loaded
            if name.split(".")[0] in ("ammflow", "yaml")} \
        == SIMULATE_MODULES
    pin = PINS["cli_import_modules"]
    assert len(loaded) <= pin, (
        f"import ammflow.cli loads {len(loaded)} modules, above the pin "
        f"of {pin} in WORK.json: {loaded}")
