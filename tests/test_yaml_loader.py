"""The scenario loader builds a composed document in one eager pass; it must
give the data PyYAML's safe loader gives, value for value and type for type."""

import glob
import math
import os
import sys

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridtraffic.cli import main as cli_main
from hybridtraffic.scenario import _EagerBuild, _Loader, load_scenario

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench"))
from gridgen import grid_scenario  # noqa: E402
from harness import GRIDS  # noqa: E402


class _PyLoader(_EagerBuild, yaml.SafeLoader):
    pass


LOADERS = [_Loader, _PyLoader]
BUNDLED = sorted(glob.glob(os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "src", "hybridtraffic", "scenarios",
    "*.yaml")))

RAW = [
    "[yes, on, no, off, true, ~, null, '']",
    "[0x1f, 0o17, 017, 0b101, 1_000, 1:30, -42, +7, 0]",
    "[.inf, -.inf, .nan, -.5e+3, 1.5, 6.8523015e+5, 190:20:30.15]",
    "[2001-12-14, 2001-12-14t21:59:43.10-05:00, 2001-12-14 21:59:43.10]",
    "['1', \"2.0\", 'yes', '~', '0x1f']",
    "[1, !!str 1, '1', !!float 2, 2, !!str yes, yes]",
    "{1: one, 1.0: float one, true: bool, '1': str one}",
    "!!set {a, b, 3}",
    "!!omap [a: 1, b: [2, 3], c: {d: 4}]",
    "!!pairs [a: 1, a: 2]",
    "!!binary aGVsbG8gd29ybGQ=",
    "{a: !!binary aGVsbG8=, b: !!seq [1], c: !!map {d: 1}, e: !!null ''}",
    "base: &b {x: 1, y: 2}\nmerged: {<<: *b, y: 3, z: 4}\n",
    "a: &a {x: 1}\nb: &b {y: 2, x: 0}\nm: {<<: [*a, *b], z: 3}\n",
    "l: &l [1, [2, 3]]\nm: *l\nn: &k {p: *l}\no: [*k, *k]\n",
    "",
    "just a string",
]


def _same(a, b) -> bool:
    """Equal in value and in type (bool is not int, int is not float), dict
    keys in the same order, NaN equal to NaN."""
    if type(a) is not type(b):
        return False
    if type(a) is dict:
        return len(a) == len(b) and all(
            _same(ka, kb) and _same(a[ka], b[kb]) for ka, kb in zip(a, b))
    if type(a) in (list, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    if type(a) is set:
        return sorted(map(repr, a)) == sorted(map(repr, b))
    if type(a) is float and math.isnan(a):
        return math.isnan(b)
    return a == b


def _check(text: str):
    want = yaml.load(text, Loader=yaml.SafeLoader)
    for loader in LOADERS:
        got = yaml.load(text, Loader=loader)
        assert _same(got, want), (loader.__name__, got, want)


@pytest.mark.parametrize("path", BUNDLED, ids=os.path.basename)
def test_bundled_scenarios_load_as_the_safe_loader_loads_them(path):
    with open(path) as f:
        _check(f.read())


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", sorted(GRIDS))
def test_generated_grids_load_as_the_safe_loader_loads_them(workload, seed):
    _check(yaml.dump(grid_scenario(GRIDS[workload], seed), Dumper=yaml.CSafeDumper,
                     sort_keys=False))


@pytest.mark.parametrize("text", RAW)
def test_every_yaml_scalar_rule_tag_and_merge_survives(text):
    _check(text)


_leaves = (st.none() | st.booleans() | st.integers() | st.floats() | st.text()
           | st.sampled_from(["yes", "~", "1:30", "0x1f", ".nan", "<<", "2001-12-14"]))
_data = st.recursive(_leaves, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(
    st.text(max_size=6) | st.integers() | st.floats(allow_nan=False), inner, max_size=4),
    max_leaves=20)


@settings(max_examples=200, deadline=None, database=None)
@given(_data)
def test_dumped_data_loads_as_the_safe_loader_loads_it(data):
    _check(yaml.safe_dump(data))


@pytest.mark.parametrize("loader", LOADERS + [yaml.SafeLoader])
def test_an_alias_is_its_anchors_object(loader):
    d = yaml.load(RAW[-3], Loader=loader)
    assert d["m"] is d["l"] and d["n"]["p"] is d["l"]
    assert d["o"][0] is d["o"][1] is d["n"]


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("text, kind", [("links: &l [*l]", "sequence"),
                                        ("a:\n  b: &m {c: *m}", "mapping")])
def test_a_document_that_contains_itself_is_refused_with_its_line(loader, text, kind):
    with pytest.raises(yaml.constructor.ConstructorError,
                       match="found a %s that contains itself" % kind) as err:
        yaml.load(text, Loader=loader)
    assert err.value.problem_mark.line == text.count("\n")


@pytest.mark.parametrize("loader", LOADERS)
def test_an_unhashable_key_is_refused_as_the_safe_loader_refuses_it(loader):
    with pytest.raises(yaml.constructor.ConstructorError, match="found unhashable key"):
        yaml.load("{[1]: 2}", Loader=loader)


def test_a_scenario_file_that_contains_itself_fails_at_load(tmp_path, capsys):
    p = tmp_path / "self.yaml"
    p.write_text("links: &l [*l]\n")
    with pytest.raises(yaml.YAMLError, match="contains itself"):
        load_scenario(str(p))
    assert cli_main(["validate", str(p)]) == 2
    err = capsys.readouterr().err
    assert "found a sequence that contains itself" in err and "line 1" in err
