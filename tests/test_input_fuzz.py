"""Shipped inputs changed one and two fields at a time, judged by the
tables that read them.

The inputs are the shipped configs, the trace of the library
`relocation_sym_zero_fee` run, the published observations and the run
files of a simulated library run.  The fields are every key of the table
that reads the file (its recipe's `scenarios._RECIPE_TABLES` for a
config, `engine._TRACE`, `calibration._OBSERVATION_TABLE`,
`cli._RUN_FILES`), whether the input sets it or not, every field of the
input itself, and a key no table names in each mapping a table reads;
lists are entered at their first item only, since their items share one
kind.  A mutation deletes a field, sets it to another type (null, an
empty and a full list and mapping, a bool, an int, a float, a string),
or moves its value: a decimal string or a number times 10 and over 10, a
negated amount, a number as a float, `fee_bps` 9999.  Every mutation runs
alone, and a derandomized Hypothesis strategy draws a fixed number of
pairs of them.

The oracle reads the same tables.  A value of a type the table refuses
must exit 2 with one `Error:` line that names the field's dotted path.  A
value of a type it accepts must not get the table's refusal; a record's
check or a builder may still refuse it.  A string for a kind that reads
strings (an Enum, an amount) may go either way.  Each command runs in
this process: an exception that escapes `main` fails the test, as does a
write outside --out.  `calibrate` may also exit 1, its verdict on
observations that no pool state fits.
"""

import copy
import functools
import json
import re
import shutil
from decimal import Decimal, InvalidOperation
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from ammflow import calibration, cli as cli_module, engine, scenarios
from ammflow.calibration import PUBLISHED_OBSERVATIONS
from ammflow.engine import trace_to_dict
from ammflow.numeric import REQUIRED
from ammflow.scenarios import library

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "src" / "ammflow"
                  / "configs").glob("*.yaml"))
SWAPS = (None, [], [1], {}, {"k": 1}, True, 0, 1.5, "x")


class Deleted:
    def __repr__(self):
        return "<deleted>"


DELETED = Deleted()
ACCEPTED, EITHER, REFUSED = range(3)  # ordered: a refusal wins


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


def table_paths(kind, prefix=()):
    """The path of every key a table names, a list of a table by index 0."""
    if type(kind) is list:
        yield from table_paths(kind[0], prefix + (0,))
    elif type(kind) is dict:
        for key, (item, _) in kind.items():
            yield prefix + (key,)
            yield from table_paths(item, prefix + (key,))


def entry_at(table, path):
    """(kind, default) of the field at path: kind None for a key the table
    does not name, object below a kind that does not read inside."""
    entry = (table, REQUIRED)
    for key in path:
        kind = entry[0]
        if type(kind) is dict:
            entry = kind.get(key, (None, REQUIRED))
        elif type(kind) is list:
            entry = (kind[0], REQUIRED)
        else:
            return object, None
    return entry


def judge(kind, value) -> int:
    """Whether the table's kind accepts value, refuses it, or leaves that
    to the reader a kind of strings calls."""
    if kind is None:
        return REFUSED
    if type(kind) is dict:
        if type(value) is not dict:
            return REFUSED
        return max([judge(kind.get(k, (None,))[0], v)
                    for k, v in value.items()]
                   + [REFUSED for k, (_, default) in kind.items()
                      if default is REQUIRED and k not in value],
                   default=ACCEPTED)
    if type(kind) is list:
        if type(value) is not list:
            return REFUSED
        return max((judge(kind[0], v) for v in value), default=ACCEPTED)
    if type(kind) is tuple:
        return ACCEPTED if any(type(value) is type(m) and value == m
                               for m in kind) else REFUSED
    if kind is object:
        return ACCEPTED
    if kind is float:
        return ACCEPTED if type(value) in (int, float) else REFUSED
    if kind in (int, bool, str, dict, list):
        return ACCEPTED if type(value) is kind else REFUSED
    return EITHER if type(value) is str else REFUSED


def moves(key, value):
    """Nearby values of a field: scaled, negated, a number as a float, or
    fee_bps 9999."""
    if key == "fee_bps":
        yield 9999
    if isinstance(value, str):
        try:
            number = Decimal(value)
        except InvalidOperation:
            number = None
        if number is not None:
            yield from (str(number * 10), str(number / 10), str(-number))
        else:  # a ratio, a quadratic-field amount or a name
            yield "-" + value
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield from (value * 10, value / 10, -value, float(value))


def holder(data, path):
    """The container that holds the field at path, or None if the input
    has none there."""
    for key in path[:-1]:
        try:
            data = data[key]
        except (KeyError, IndexError, TypeError):
            return None
    return data if isinstance(data, (dict, list)) else None


def mutations(table, sample, deep):
    """(path, value, verdict) of every mutation of sample's fields: the
    table's, and if deep, every field of sample too."""
    found = []
    fields = set(table_paths(table)) | (set(paths(sample)) if deep else set())
    # a key no table names, in every mapping a table reads
    fields |= {path + ("unknown",) for path in {(), *fields}
               if type(entry_at(table, path)[0]) is dict}
    for path in sorted(fields, key=str):
        parent = holder(sample, path)
        if parent is None or isinstance(parent, list) and len(parent) == 0:
            continue
        kind, default = entry_at(table, path)
        present = isinstance(parent, list) or path[-1] in parent
        values = [*SWAPS] if kind is not None else [1]
        if present:
            values += moves(path[-1], parent[path[-1]])
        if present and isinstance(parent, dict):
            values.append(DELETED)
        for value in values:
            verdict = (REFUSED if default is REQUIRED else ACCEPTED) \
                if value is DELETED else judge(kind, value)
            found.append((path, value, verdict))
    return found


def mutate(data, changes):
    mutant = copy.deepcopy(data)
    for path, value, _ in changes:
        parent = holder(mutant, path)
        if value is DELETED:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return mutant


def refused_by_table(stderr: str, path) -> bool:
    """Whether stderr is `read`'s refusal of the field at path or of one
    below it."""
    p = re.escape(".".join(map(str, path))) + r"(\.\S+)?"
    return re.search(rf": (unknown key {p}$|{p} must be .*, got |"
                     rf"{p} is required$|{p}: )", stderr, re.M) is not None


def judged_failures(what, changes, result):
    """What an outcome breaks of the oracle."""
    refused = [path for path, _, verdict in changes if verdict == REFUSED]
    named = [path for path, _, verdict in changes
             if refused_by_table(result.stderr, path)]
    if refused and result.exit_code != 2:
        return [f"{what}: exit {result.exit_code}, not a refusal"]
    if refused and not named:
        return [f"{what}: {result.stderr!r} names none of {refused}"]
    if not refused and any(verdict == ACCEPTED for path, _, verdict
                           in changes if path in named):
        return [f"{what}: the table refused an accepted value: "
                f"{result.stderr!r}"]
    return []


def library_trace():
    run = library()["relocation_sym_zero_fee"]()
    return trace_to_dict(run.execute()[1], run.world.mode)


# input kind -> (how the file is written, the command before its path and
# after it, the exit statuses that are verdicts); a config is written as
# JSON, which is YAML's flow style, since yaml.safe_dump is slow
KINDS = {
    "yaml": (json.dumps, ["simulate"], [], (0,)),
    "trace": (json.dumps, ["analyze"],
              ["--principal", "P", "--beneficiary", "B"], (0,)),
    "observations": (json.dumps, ["calibrate", "--observations"], [],
                     (0, 1)),
    "run": (json.dumps, ["report"], [], (0,)),
}
RUN_FILES = tuple(cli_module._RUN_FILES)
CASES = {
    **{path.stem: ("yaml", lambda path=path: yaml.safe_load(
        path.read_text(encoding="utf-8"))) for path in CONFIGS},
    "relocation_sym_zero_fee_trace": ("trace", library_trace),
    "published_observations": ("observations",
                               PUBLISHED_OBSERVATIONS.to_dict),
    **{f"run_{name}": ("run", None) for name in RUN_FILES},
}


def table_of(kind, data, case):
    if kind == "yaml":
        return scenarios._RECIPE_TABLES[data["recipe"]]
    if kind == "run":
        return cli_module._RUN_FILES[case[4:]]
    return {"trace": engine._TRACE,
            "observations": calibration._OBSERVATION_TABLE}[kind]


@functools.cache
def run_files():
    """The run files of a fresh library run, by name."""
    from tempfile import TemporaryDirectory
    with TemporaryDirectory() as tmp:
        assert cli_module.main(["simulate", "relocation_sym_zero_fee",
                                "--out", tmp], standalone_mode=False) == 0
        run_dir = Path(tmp) / "relocation_sym_zero_fee"
        return {name: json.loads((run_dir / f"{name}.json").read_text())
                for name in RUN_FILES}


@functools.cache
def case_data(case):
    """(input kind, sample, mutations) of a case."""
    kind, load = CASES[case]
    data = run_files()[case[4:]] if kind == "run" else load()
    # report copies a run file's contents, so only its table's keys count
    return kind, data, mutations(table_of(kind, data, case), data,
                                 deep=kind != "run")


def files_outside(root: Path) -> set[str]:
    """The files a run left in root outside --out, the input apart."""
    out = root / "out"
    return {p.name for p in root.rglob("*") if p.is_file()
            and out not in p.parents and not p.name.startswith("input.")}


def run_mutant(cli, root: Path, case, data, changes):
    """The failures of one mutant of case's sample, run in root."""
    kind, _, _ = case_data(case)
    dump, command, options, verdicts = KINDS[kind]
    what = ", ".join(f"{'.'.join(map(str, path))} = {value!r}"
                     for path, value, _ in changes)
    out = root / "out"
    if kind == "run":  # the other run files stay as simulated
        run_dir = out / "relocation_sym_zero_fee"
        run_dir.mkdir(parents=True, exist_ok=True)
        for name, body in run_files().items():
            (run_dir / f"{name}.json").write_text(
                dump(mutate(body, changes) if name == case[4:] else body),
                encoding="utf-8")
        for name in ("report.json", "report.txt"):
            (out / name).unlink(missing_ok=True)
        argv = [*command, str(out)]
    else:
        source = root / f"input.{kind}"
        source.write_text(dump(mutate(data, changes)), encoding="utf-8")
        argv = [*command, str(source), *options]
        if kind == "yaml":
            argv += ["--out", str(out)]
    try:
        result = cli(argv)
    except Exception as exc:  # a traceback on the command line
        return [f"{what}: {type(exc).__name__}: {exc}"]
    failures = judged_failures(what, changes, result)
    if result.exit_code not in (*verdicts, 2):
        failures.append(f"{what}: exit {result.exit_code}")
    if result.exit_code == 2 and not (
            result.stderr.startswith("Error: ")
            and result.stderr.count("\n") == 1):
        failures.append(f"{what}: stderr {result.stderr!r}")
    if result.exit_code == 2 and kind == "run" \
            and (out / "report.json").exists():
        failures.append(f"{what}: report written after a refusal")
    return failures


@pytest.mark.parametrize("case", CASES)
def test_one_field_mutations_exit_cleanly(cli, tmp_path, monkeypatch, case):
    monkeypatch.chdir(tmp_path)  # a relative write would land here
    _, data, found = case_data(case)
    failures = []
    for change in found:
        failures += run_mutant(cli, tmp_path, case, data, [change])
    assert failures == [], "\n".join(failures)
    assert files_outside(tmp_path) == set()


def disjoint(pair) -> bool:
    """Two changes of which neither holds the other's field."""
    (a, _, _), (b, _, _) = pair
    return a[:len(b)] != b and b[:len(a)] != a


@st.composite
def two_changes(draw):
    case = draw(st.sampled_from(sorted(CASES)))
    found = case_data(case)[2]
    pair = draw(st.tuples(st.sampled_from(found), st.sampled_from(found))
                .filter(disjoint))
    return case, list(pair)


@settings(max_examples=40, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(drawn=two_changes())
def test_two_field_mutations_follow_the_tables(cli, tmp_path, monkeypatch,
                                               drawn):
    case, changes = drawn
    shutil.rmtree(tmp_path)  # one example's files are not the next's
    tmp_path.mkdir()
    monkeypatch.chdir(tmp_path)  # a relative write would land here
    failures = run_mutant(cli, tmp_path, case, case_data(case)[1], changes)
    assert failures == [], "\n".join(failures)
    assert files_outside(tmp_path) == set()


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
def test_a_misspelt_config_key_is_refused(cli, tmp_path, path):
    data = yaml.safe_load(path.read_text(encoding="utf-8"))
    source, out = tmp_path / "input.yaml", tmp_path / "out"
    for key_path in paths(data):
        if isinstance(key_path[-1], int):  # a list index names no key
            continue
        mutant = copy.deepcopy(data)
        parent = holder(mutant, key_path)
        parent[key_path[-1] + "_"] = parent.pop(key_path[-1])
        source.write_text(json.dumps(mutant), encoding="utf-8")
        result = cli(["simulate", str(source), "--out", str(out)])
        assert result.exit_code == 2, key_path
        assert result.stderr.startswith("Error: config error: ")
    assert not out.exists()
