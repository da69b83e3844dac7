"""Work counts that must not rise unnoticed, pinned in `WORK.json`.

`src_lines` is the number of lines (as `wc -l` counts them) in
`src/ammflow/*.py`.  A change that adds lines fails here until it raises
the pin and says why in CHANGES.md; a change that removes lines lowers
the pin, so the next one cannot spend them silently.
`cli_import_modules` is the number of modules that importing
`ammflow.cli` adds to a fresh interpreter started without `site`; it
fences the cold start of every `ammflow` command the same way.  The
runtime dependency list is fenced at empty: configs are read without
PyYAML, which only the tests use, as the reader's oracle.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from ammflow.cli import main

ROOT = Path(__file__).resolve().parents[1]
PINS = json.loads((ROOT / "WORK.json").read_text())

# what `simulate` runs on: `claims` is for `selftest` alone, and no
# command imports `yaml`
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


def test_no_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []


def run_files(out: Path) -> dict:
    """Each file under out by its path; a manifest read, with its
    config_hash (the sha256 of a config file, or of a library name) out."""
    files = {path.relative_to(out): path.read_bytes()
             for path in out.rglob("*") if path.is_file()}
    for path, body in files.items():
        if path.name == "manifest.json":
            files[path] = {**json.loads(body), "config_hash": None}
    return files


def test_shipped_configs_simulate_without_pyyaml(tmp_path):
    configs = sorted((ROOT / "src" / "ammflow" / "configs").glob("*.yaml"))
    code = (f"import sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n"
            "sys.modules['yaml'] = None  # import yaml fails\n"
            "from ammflow.cli import main\n"
            "sys.exit(main(sys.argv[1:], standalone_mode=False))\n")
    subprocess.run([sys.executable, "-c", code, "simulate", *map(str, configs),
                    "--out", str(tmp_path / "files")], check=True,
                   capture_output=True)
    names = sorted(run.name for run in (tmp_path / "files").iterdir())
    assert main(["simulate", *names, "--out", str(tmp_path / "library")],
                standalone_mode=False) == 0
    library = run_files(tmp_path / "library")
    assert len(library) > 8 * 5
    assert run_files(tmp_path / "files") == library
