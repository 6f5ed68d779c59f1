"""The scenario loader builds the document straight from the parser's
events; it must give the data PyYAML's safe loader gives, value for value and
type for type, and refuse what it refuses with the same error and place. A
collection tagged other than `!!map`, `!!seq` or `!` is the one exception: no
scenario key holds one, so both loaders refuse it at its line, as REFUSED
says for each row that has one."""

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


# Each row of RAW, EDGES and ERRORS with a collection tagged other than
# `!!map`, `!!seq` or `!`: the line of the first such collection and what it
# is. The safe loader builds what it holds, or, in ERRORS, fails on it.
REFUSED = {
    "!!set {a, b, 3}": (0, "mapping tagged !!set"),
    "!!omap [a: 1, b: [2, 3], c: {d: 4}]": (0, "sequence tagged !!omap"),
    "!!pairs [a: 1, a: 2]": (0, "sequence tagged !!pairs"),
    "a: &p {k: 1}\nb: !!omap [*p, j: *p]\n": (1, "sequence tagged !!omap"),
    "a: {<<: !!set {x, y}, z: 1}": (0, "mapping tagged !!set"),
    "a: {<<: !!omap [x: 1, y: 2], z: 1}": (0, "sequence tagged !!omap"),
    "a: {<<: !foo {x: 1}}": (0, "mapping tagged !foo"),
    "a: &s !!set {x}\nb: {<<: *s}\n": (0, "mapping tagged !!set"),
    "a: &l [!!set {x}, {y: 1}]\nb: {<<: *l}\n": (0, "mapping tagged !!set"),
    "a: !!set {<<: {q: 1}}": (0, "mapping tagged !!set"),
    "- &a !!str 1\n- *a\n- &b {x: *a}\n- !!pairs [*b, y: *b]\n": (3, "sequence tagged !!pairs"),
    "- !!omap [*q]\n": (0, "sequence tagged !!omap"),
    "a: !!omap [{b: 1, c: 2}]": (0, "sequence tagged !!omap"),
    "a: &m [1]\nb: !!omap [*m]\n": (1, "sequence tagged !!omap"),
}


def _refused(text: str, loader):
    line, what = REFUSED[text]
    with pytest.raises(yaml.constructor.ConstructorError) as err:
        yaml.load(text, Loader=loader)
    e = err.value
    assert type(e) is yaml.constructor.ConstructorError
    assert (e.context, e.problem) == (None, "found a %s, which no scenario key can hold" % what)
    assert e.problem_mark.line == line


def _check(text: str):
    """Both loaders give what yaml.SafeLoader gives, or refuse a row of
    REFUSED."""
    if text in REFUSED:
        for loader in LOADERS:
            _refused(text, loader)
        return
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


# merges, tags and aliases the loader resolves itself; tagged collections (REFUSED)
EDGES = [
    "{=: 1}",
    "a: &p {k: 1}\nb: !!omap [*p, j: *p]\n",
    "a: {<<: !!set {x, y}, z: 1}",
    "a: {<<: !!omap [x: 1, y: 2], z: 1}",
    "a: {<<: !foo {x: 1}}",
    "a: &s !!set {x}\nb: {<<: *s}\n",
    "a: &l [!!set {x}, {y: 1}]\nb: {<<: *l}\n",
    "a: !!set {<<: {q: 1}}",
    "{<<: {a: 1, b: 1}, <<: {a: 2}, c: 3}",
    "x: &m {a: 1}\ny: {b: 0, <<: [*m, {b: 2, c: 3}], a: 3}\n",
    "- &a !!str 1\n- *a\n- &b {x: *a}\n- !!pairs [*b, y: *b]\n",
    "{&k a: 1, b: *k, *k: 2}",
    "x: {&m <<: {a: 1}, b: 0}\ny: {*m: {c: 2}, d: 1}\n",
]

ERRORS = [
    "a: 1\n---\nb: 2\n",  # a second document
    "--- 1\n--- 2\n",
    "a: *x\n",  # an undefined alias
    "- !!omap [*q]\n",
    "a: &x 1\nb: &x 2\n",  # a duplicate anchor
    "a: &x [1]\nb: {c: &x 2}\n",
    "a: &e [1]\nb: {*e: 1}\n",  # an unhashable key
    "{{a: 1}: 2}",
    "a: {<<: 1}",  # a merge of what is no map
    "a:\n  b: 1\nc: {<<: [{a: 1}, 2]}\n",
    "a: &l [{x: 1}, 2]\nb: {<<: *l}\n",
    "[<<]",  # a merge key or `=` outside a key
    "{a: <<}",
    "[=]",
    "{=: 1, b: =}",
    "a: !!omap [{b: 1, c: 2}]",  # the safe constructor's own checks
    "a: &m [1]\nb: !!omap [*m]\n",
]


@pytest.mark.parametrize("text", EDGES)
def test_merges_tags_and_aliases_load_as_the_safe_loader_loads_them(text):
    _check(text)


def _place(mark):
    return None if mark is None else (mark.line, mark.column)


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("text", ERRORS)
def test_an_error_is_the_safe_loaders_at_the_same_place(loader, text):
    if text in REFUSED:
        _refused(text, loader)
        return
    with pytest.raises(yaml.MarkedYAMLError) as want:
        yaml.load(text, Loader=yaml.SafeLoader)
    with pytest.raises(yaml.MarkedYAMLError) as got:
        yaml.load(text, Loader=loader)
    w, g = want.value, got.value
    assert type(g) is type(w)
    assert (g.context, g.problem) == (w.context, w.problem)
    assert _place(g.context_mark) == _place(w.context_mark)
    assert _place(g.problem_mark) == _place(w.problem_mark)


@pytest.mark.parametrize("loader", LOADERS + [yaml.SafeLoader])
def test_an_alias_in_a_tagged_collection_or_a_merge_is_its_anchors_object(loader):
    # a tagged collection is refused (REFUSED), so only the merge is left
    d = yaml.load("a: &p [1]\nc: {<<: {k: *p}}\n", Loader=loader)
    assert d["c"]["k"] is d["a"]


@pytest.mark.parametrize("text, error", [
    ("links: []\n---\nlinks: []\n", "expected a single document in the stream"),
    ("a: 1\nlinks: *l\n", "found undefined alias 'l'"),
    ("a: &l []\nlinks: &l []\n", "found duplicate anchor 'l'"),
    ("a: 1\nlinks: !!set {1}\n", "found a mapping tagged !!set, which no scenario key"),
])
def test_a_file_the_loader_refuses_exits_2_naming_the_problem(tmp_path, capsys, text, error):
    p = tmp_path / "bad.yaml"
    p.write_text(text)
    assert cli_main(["validate", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and error in err and "line 2" in err
