"""The config reader against PyYAML, its oracle.

`scenarios.load_scenario_config` reads JSON, or the block subset of YAML
that configs are written in, without PyYAML.  Every text the reader
accepts must read as `yaml.safe_load` reads it, and every text it refuses
must exit 2 with one `Error: config error:` line.  The texts are configs
drawn in the shapes of `scenarios._RECIPE_TABLES`, with scalars that YAML
1.1 reads as something other than a string among them, each rendered by
`yaml.safe_dump`, by hand in block style and as JSON.
"""

import json
import re
from enum import Enum
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from ammflow.scenarios import ConfigError, _RECIPE_TABLES, _parse

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "src" / "ammflow" / "configs").glob("*.yaml"))

# plain texts that YAML 1.1 reads as a bool, null, float, date or int the
# subset has no room for, or as structure, or refuses
TRAPS = ["yes", "No", "ON", "off", "y", "n", "null", "Null", "~", "",
         "True", "FALSE", "1.5", "-.5", "1.", "1e+3", "1e3", ".inf",
         "-.Inf", ".NaN", "0x1F", "0o17", "017", "0b101", "1_000", "+1_0",
         "1:20", "190:20:30.15", "2001-01-01", "2001-12-14 21:59:43.10 -5",
         "=", "<<", "-", "- x", "a: b", "a:b", "#x", "a #b", "&a", "*a",
         "!!str x", "|", ">", "[x]", "{x: 1}", "[a, [b]]", "'", '"', "a'b",
         'a"b', "\\", "a\\nb", " x", "x ", "x\ty", "%x", "@x", "`x", "?",
         "? x", "a,b", "1 2", "0", "-0", "+7", "9" * 80, "---", "..."]
WORDS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_.-]{0,8}( [A-Za-z0-9_.-]{1,4})?",
                      fullmatch=True)
# no lone surrogate or astral character: PyYAML reads a JSON surrogate
# pair escape as two lone surrogates, where JSON reads the one character
TEXT = st.text(st.characters(max_codepoint=0xFFFF,
                             blacklist_categories=("Cs",)), max_size=5)
ATOMS = st.one_of(st.integers(-10 ** 20, 10 ** 20), st.booleans(),
                  st.sampled_from(TRAPS), WORDS, TEXT, st.floats(),
                  st.from_regex(r"[0-9]{1,4}(\.[0-9]{1,3})?", fullmatch=True))
# fresh empty flows: yaml.safe_dump writes one object met twice as an
# anchor and an alias
SCALARS = st.one_of(ATOMS, st.builds(dict), st.builds(list),
                    st.lists(ATOMS, max_size=2))
# scalars the subset holds: ints, bools, empty flows, words, and the traps
# that yaml.safe_dump writes single-quoted with no escape
SUBSET = st.one_of(
    st.integers(-10 ** 20, 10 ** 20), st.booleans(), st.builds(dict),
    st.builds(list), WORDS, st.sampled_from([
        trap for trap in TRAPS
        if re.fullmatch(r"'[^']*'\n", yaml.safe_dump(trap))]))


def drawn(kind, scalars):
    """Values shaped like a table kind: its mappings and lists, with any of
    scalars, or a value of the kind, in each leaf."""
    if type(kind) is dict:
        return st.fixed_dictionaries({}, optional={
            key: drawn(item, scalars) for key, (item, _) in kind.items()})
    if type(kind) is list:
        return st.lists(drawn(kind[0], scalars), max_size=2)
    if type(kind) is tuple and kind:
        return st.sampled_from(kind) | scalars
    if isinstance(kind, type) and issubclass(kind, Enum):
        return st.sampled_from([member.value for member in kind]) | scalars
    return scalars


def configs(scalars):
    return st.sampled_from(sorted(_RECIPE_TABLES)).flatmap(
        lambda recipe: drawn(_RECIPE_TABLES[recipe], scalars))


def flow(value, draw) -> str:
    """value on one line: a scalar as drawn, plain or quoted, or a flow."""
    if isinstance(value, dict):
        return "{" + ", ".join(f"{key}: {flow(item, draw)}"
                               for key, item in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(flow(item, draw) for item in value) + "]"
    if isinstance(value, bool):
        return draw(st.sampled_from(["true", "True"] if value
                                    else ["false", "False"]))
    if isinstance(value, str):
        return draw(st.sampled_from([value, f"'{value}'", f'"{value}"']))
    return str(value)


def block(value: dict, draw, indent: int = 0) -> list[str]:
    """value in block style by hand. A mapping or list of two or more
    items goes on lines of its own or in flow, as drawn; a list sits at
    its key's indentation or two deeper, and a mapping in it opens on its
    item's line. Comments go here and there."""
    pad, lines = " " * indent, []
    for key, item in value.items():
        if isinstance(item, (dict, list)) and len(item) > 1 \
                and draw(st.booleans()):
            lines.append(f"{pad}{key}:")
            if isinstance(item, dict):
                lines += block(item, draw, indent + 2)
                continue
            step = draw(st.sampled_from([0, 2]))
            for element in item:
                dash = f"{pad}{' ' * step}- "
                if isinstance(element, dict) and element:
                    first, *rest = block(element, draw, len(dash))
                    lines += [dash + first.lstrip(" "), *rest]
                else:
                    lines.append(dash + flow(element, draw))
        else:
            lines.append(f"{pad}{key}: {flow(item, draw)}")
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from([
                lines.pop() + " # a comment", f"{pad}# a comment", ""])))
    return lines


def refused(cli, tmp_path, text) -> bool:
    """Whether the reader refuses text; a refusal must also exit 2 with
    one config error line, and a text it reads must read as PyYAML reads
    it."""
    try:
        value = _parse(text)
    except ConfigError:
        config = tmp_path / "config.yaml"
        config.write_text(text, encoding="utf-8")
        result = cli(["simulate", str(config),
                      "--out", str(tmp_path / "out")])
        assert result.exit_code == 2, (text, result.stderr)
        assert result.stderr.startswith("Error: config error: ")
        assert result.stderr.count("\n") == 1, result.stderr
        assert not (tmp_path / "out").exists()
        return True
    assert repr(value) == repr(yaml.safe_load(text)), text
    return False


SETTINGS = settings(max_examples=150, deadline=None, derandomize=True,
                    database=None, suppress_health_check=[
                        HealthCheck.function_scoped_fixture,
                        HealthCheck.too_slow])


@SETTINGS
@given(config=configs(SCALARS), data=st.data())
def test_a_text_is_read_as_pyyaml_reads_it_or_exits_2(cli, tmp_path, config,
                                                      data):
    for text in (yaml.safe_dump(config), json.dumps(config),
                 "\n".join(block(config, data.draw)) + "\n"):
        refused(cli, tmp_path, text)


@SETTINGS
@given(config=configs(SUBSET))
def test_safe_dump_of_subset_scalars_is_accepted(cli, tmp_path, config):
    # a plain word or a quoted trap is always read, so the subset is not
    # an empty one that refuses everything
    assert not refused(cli, tmp_path, yaml.safe_dump(config))


@pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
def test_a_shipped_config_reads_as_pyyaml_reads_it(path):
    text = path.read_text(encoding="utf-8")
    for form in (text, text.replace("\n", "\r\n"),
                 yaml.safe_dump(yaml.safe_load(text))):
        assert repr(_parse(form)) == repr(yaml.safe_load(form))


def test_the_readme_config_reads_as_pyyaml_reads_it():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```yaml\n(.*?)```", readme, re.S)
    assert repr(_parse(example)) == repr(yaml.safe_load(example))


@pytest.mark.parametrize("text, line", [
    ("a: &x 1\n", 1), ("a: 1\nb: *x\n", 2), ("a: !!str 1\n", 1),
    ("a: |\n  x\n", 1), ("a: >\n  x\n", 1), ("a: 'x\n  y'\n", 1),
    ("a: x\n  y\n", 2), ("a: 1\n---\nb: 2\n", 2), ("a: 1\n...\n", 2),
    ("a:\n\tb: 1\n", 2), ("a: 1 \t# c\n", 1), ("a: 1\na: 2\n", 2),
    ("a: 1.5\n", 1), ("a: 1e5\n", 1), ("a: .inf\n", 1),
    ("a: 2001-01-01\n", 1), ("a: ~\n", 1), ("a: null\n", 1), ("a:\n", 1),
    ("a: yes\n", 1), ("a: Off\n", 1), ("a: 0x1F\n", 1), ("a: 017\n", 1),
    ("a: 1_000\n", 1), ("a: 1:20\n", 1), ("a: 'it''s'\n", 1),
    ('a: "\\t"\n', 1), ("a:\n  b:\n    c:\n      d: 1\n", 3),
    ("a: 1\n  b: 2\n", 2), ("a: {b: 1, b: 2}\n", 1),
    ("a: {b: 1, 'b': 2}\n", 1), ("a: {b}\n", 1), ("x\n", 1),
    ("a: 'x\x01'\n", 1), ("a: 'x\x85y'\n", 1), ("a: 1 # x\u2028b: 2\n", 1),
], ids=["anchor", "alias", "tag", "literal", "folded", "multi-line quoted",
        "multi-line plain", "document start", "document end",
        "tab indentation", "tab before comment", "repeated key", "float",
        "exponent", "infinity", "date", "tilde", "null", "empty value",
        "yes", "Off", "hex", "octal", "underscored", "sexagesimal",
        "quote escape", "backslash escape", "four deep", "misaligned",
        "repeated flow key", "repeated quoted flow key", "flow key alone",
        "scalar root", "control character", "next line",
        "line separator"])
def test_a_form_outside_the_subset_is_refused_by_line(text, line):
    with pytest.raises(ConfigError, match=f"^line {line}: "):
        _parse(text)


@pytest.mark.parametrize("text", [
    "a: " + "[" * 20_000 + "]" * 20_000,
    "[" * 20_000 + "]" * 20_000,
], ids=["in_a_value", "at_the_root"])
def test_deep_flow_nesting_is_refused_at_its_line(text):
    # the nesting itself is never parsed: an item of a flow is a scalar
    with pytest.raises(ConfigError, match=r"^line 1: '\[\["):
        _parse(text)


def test_deep_json_is_one_refusal():
    with pytest.raises(ConfigError, match="^config is not valid JSON: "):
        _parse('{"a": ' * 5_000 + "1" + "}" * 5_000)
