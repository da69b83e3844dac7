"""One field of a shipped input changed at a time: every outcome is a clean
exit, never a traceback or a write outside --out.

The inputs are the shipped configs, the trace of the library
`relocation_sym_zero_fee` run and the published observations.  Each
mutation replaces one field, a container or a leaf, with another type
(null, a list, a mapping, a bool, an int, a string), or moves a value:
a decimal string or a number times 10 and over 10, a negated amount,
`fee_bps` 9999.  Lists are entered at their first item only, since their
items share one shape.  The command runs in this process, and every
exception that escapes `main` is listed as a failure.  Exit 2 must come
with one `Error:` line.  `calibrate` may also exit 1, its
verdict on observations that no pool state fits.
"""

import copy
import json
from decimal import Decimal, InvalidOperation
from pathlib import Path

import pytest
import yaml

from ammflow.calibration import PUBLISHED_OBSERVATIONS
from ammflow.engine import trace_to_dict
from ammflow.scenarios import library

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "src" / "ammflow"
                  / "configs").glob("*.yaml"))
SWAPS = (None, [1], {"k": 1}, True, 7, "x")


def paths(node, prefix=()):
    """The path of every field under node, a list by its first item."""
    if isinstance(node, dict):
        items = list(node.items())
    elif isinstance(node, list):
        items = list(enumerate(node))[:1]
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


def moves(key, value):
    """Nearby values of a field: scaled, negated, or fee_bps 9999."""
    if key == "fee_bps":
        yield 9999
    if isinstance(value, str):
        try:
            number = Decimal(value)
        except InvalidOperation:
            number = None
        if number is not None:
            yield from (str(number * 10), str(number / 10), str(-number))
        else:  # a ratio or a quadratic-field amount
            yield "-" + value
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield from (value * 10, value / 10, -value)


def parent(data, path):
    """The container that holds the field at path."""
    for key in path[:-1]:
        data = data[key]
    return data


def mutants(data):
    for path in paths(data):
        for value in (*SWAPS, *moves(path[-1], parent(data, path)[path[-1]])):
            mutant = copy.deepcopy(data)
            parent(mutant, path)[path[-1]] = value
            yield f"{'.'.join(map(str, path))} = {value!r}", mutant


def library_trace():
    run = library()["relocation_sym_zero_fee"]()
    return trace_to_dict(run.execute()[1], run.world.mode)


# input kind -> (how the file is written, the command before its path and
# after it, the exit statuses that are verdicts)
KINDS = {
    "yaml": (yaml.safe_dump, ["simulate"], [], (0,)),
    "trace": (json.dumps, ["analyze"],
              ["--principal", "P", "--beneficiary", "B"], (0,)),
    "observations": (json.dumps, ["calibrate", "--observations"], [],
                     (0, 1)),
}
CASES = [(path.stem, "yaml", lambda path=path: yaml.safe_load(
    path.read_text(encoding="utf-8"))) for path in CONFIGS] + [
    ("relocation_sym_zero_fee_trace", "trace", library_trace),
    ("published_observations", "observations",
     PUBLISHED_OBSERVATIONS.to_dict)]


def files_outside(root: Path, out: Path) -> set[Path]:
    return {p for p in root.rglob("*")
            if p != out and out not in p.parents and p.is_file()}


@pytest.mark.parametrize("kind, load", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_one_field_mutations_exit_cleanly(cli, tmp_path, monkeypatch, kind,
                                          load):
    dump, command, options, verdicts = KINDS[kind]
    source = tmp_path / f"input.{kind}"
    out = tmp_path / "out"
    monkeypatch.chdir(tmp_path)  # a relative write would land here
    failures = []
    for what, mutant in mutants(load()):
        source.write_text(dump(mutant), encoding="utf-8")
        argv = [*command, str(source), *options]
        if kind == "yaml":
            argv += ["--out", str(out)]
        try:
            result = cli(argv)
        except Exception as exc:  # a traceback on the command line
            failures.append(f"{what}: {type(exc).__name__}: {exc}")
            continue
        if result.exit_code not in (*verdicts, 2):
            failures.append(f"{what}: exit {result.exit_code}")
        if result.exit_code == 2 and not (
                result.stderr.startswith("Error: ")
                and result.stderr.count("\n") == 1):
            failures.append(f"{what}: stderr {result.stderr!r}")
        if files_outside(tmp_path, out) != {source}:
            failures.append(f"{what}: wrote outside --out")
    assert failures == [], "\n".join(failures)


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
def test_a_misspelt_config_key_is_refused(cli, tmp_path, path):
    data = yaml.safe_load(path.read_text(encoding="utf-8"))
    source, out = tmp_path / "input.yaml", tmp_path / "out"
    for key_path in paths(data):
        if isinstance(key_path[-1], int):  # a list index names no key
            continue
        mutant = copy.deepcopy(data)
        holder = parent(mutant, key_path)
        holder[key_path[-1] + "_"] = holder.pop(key_path[-1])
        source.write_text(yaml.safe_dump(mutant), encoding="utf-8")
        result = cli(["simulate", str(source), "--out", str(out)])
        assert result.exit_code == 2, key_path
        assert result.stderr.startswith("Error: config error: ")
    assert not out.exists()
