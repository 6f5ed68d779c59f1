"""Tests of the benchmark's own parts: the grid generator, span arithmetic,
the counting RNG proxy, and that measuring or tracing a run leaves the
simulation's outputs unchanged."""

import json
import os
from array import array
from dataclasses import replace

import numpy as np
import pytest

import hybridtraffic
from hybridtraffic import load_scenario, save_scenario, validate_scenario
from hybridtraffic.cli import main as cli_main

import harness
from gridgen import GridSpec, grid_scenario, write_grid
from tracing import LAYER_METRICS, CountingRng, Tracer, self_times_by_name

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SMALL = GridSpec(
    rows=3, cols=6,
    blocks=(("ctm", 0, 5), ("two_queue", 2, 2), ("newell", 4, 5)),
    signal_share=1.0, length_range=(60.0, 100.0), duration=60.0, dt=2.0,
)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("spec", [SMALL, replace(harness.GRIDS["grid_micro"], rows=3)])
def test_generated_grids_validate(tmp_path, spec, seed):
    path = str(tmp_path / "grid.yaml")
    write_grid(spec, seed, path)
    sc = load_scenario(path)
    assert validate_scenario(sc) == []
    lanes = {l.id: l.full_lanes for l in sc.links}
    n_conn = len(sc.links) - spec.rows * spec.cols
    assert n_conn > 0
    # arterials are numbered row by row; the last column is the bottleneck
    for i in range(spec.rows):
        row = [lanes[i * spec.cols + j] for j in range(spec.cols)]
        assert row[-1] == 1 and all(n in (2, 3) for n in row[:-1])
    assert all(lanes[l] == 1 for l in range(spec.rows * spec.cols, len(sc.links)))
    assert grid_scenario(spec, seed) == grid_scenario(spec, seed)


def test_signal_share_and_model_blocks():
    d = grid_scenario(SMALL, 7)
    merges = sum(1 for r in d["road_connections"] if r["up_link"] >= SMALL.rows * SMALL.cols)
    assert len(d["controllers"]) == merges  # signal_share 1.0: every merge
    kinds = {m["kind"] for m in d["models"]}
    assert kinds == {"ctm", "two_queue", "newell"}
    none = grid_scenario(replace(SMALL, signal_share=0.0), 7)
    assert none["controllers"] == [] and none["actuators"] == []


def test_self_times_on_a_toy_call_tree():
    # root [0, 10] > a [1, 4], b [5, 9] > c [6, 7]
    name = np.array([0, 1, 2, 3])
    parent = np.array([-1, 0, 0, 2])
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 7.0])
    self_t = self_times_by_name(name, parent, start, end, 4)
    assert self_t.tolist() == [3.0, 3.0, 3.0, 1.0]
    assert self_t.sum() == end[0] - start[0]


def test_tracer_spans_nest_and_self_times_sum_to_roots():
    tr = Tracer()
    leaf = tr.wrap("leaf", lambda: sum(range(2000)))
    mid = tr.wrap("mid", lambda: [leaf() for _ in range(3)])
    root = tr.wrap("root", lambda: (mid(), leaf()))
    root()
    root()
    start, end = np.asarray(tr.start), np.asarray(tr.end)
    parent = np.asarray(tr.parent)
    for i, p in enumerate(parent):
        if p >= 0:
            assert start[p] <= start[i] <= end[i] <= end[p]
    roots = parent < 0
    assert roots.sum() == 2
    self_t = tr.self_times()
    assert all(v >= 0 for v in self_t.values())
    assert sum(self_t.values()) == pytest.approx((end - start)[roots].sum(), rel=1e-9)
    assert tr.calls() == {"leaf": 8, "mid": 2, "root": 2}


def test_counting_rng_yields_the_generators_stream():
    bare = np.random.default_rng(5)
    proxy = CountingRng(np.random.default_rng(5))
    for _ in range(50):
        assert proxy.normal(2.0, 0.5) == bare.normal(2.0, 0.5)
        assert proxy.poisson(1.7) == bare.poisson(1.7)
        p = np.array([0.2, 0.3, 0.5])
        assert proxy.choice(3, p=p) == bare.choice(3, p=p)
    assert proxy.random() == bare.random()  # undelegated methods pass through
    assert proxy.counts == {"normal": 50, "poisson": 50, "choice": 50}


def test_step_times_scale_by_the_probes_around_them():
    ref = harness.PROBE_REFERENCE_S
    rep = harness.Repeat(steps=array("d", [1.0, 1.0, 1.0, 1.0]))
    # probes after steps 0 and 2: step 0 gets the first, steps 1-2 the mean
    # of both, step 3 the last
    rep.probes = [(1, ref), (3, 2 * ref)]
    assert list(harness.scaled_steps(rep)) == pytest.approx([1.0, 2 / 3, 2 / 3, 0.5])
    assert harness.probe() > 0.0


def test_observer_on_model_clock_writes_the_cli_csvs(tmp_path):
    sc = load_scenario(os.path.join(os.path.dirname(hybridtraffic.__file__),
                                    "scenarios", "micro_macro.yaml"))
    sc.run.duration = 300.0
    path = str(tmp_path / "short.yaml")
    save_scenario(sc, path)
    assert cli_main(["run", path, "--out-dir", str(tmp_path / "cli"),
                     "--out-dt", str(harness.CSV_PERIOD)]) == 0
    rep = harness.Repeat()
    harness.run_case(harness.Case(path, csv_dir=str(tmp_path / "bench")), rep)
    assert rep.failures == []
    for name in sorted(os.listdir(tmp_path / "cli")):
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "bench" / name).read_bytes()


def test_tracing_leaves_outputs_unchanged_and_counts_exact(tmp_path):
    path = str(tmp_path / "grid.yaml")
    write_grid(SMALL, 3, path)
    cases = [harness.Case(path)]
    plain = harness.run_repeat(cases, audit=True)
    traced = [harness.run_repeat(cases, traced=True) for _ in range(2)]
    assert plain.failures == []
    values = []
    for rep in traced:
        assert rep.failures == [] and rep.digest == plain.digest
        total = sum(rep.tracer.self_times().values())
        assert total == pytest.approx(rep.setup_s + rep.run_s, rel=1e-3)
        values.append(harness.layer_values(rep))
    counts = [n for n, unit, *_ in LAYER_METRICS if unit in ("count", "bytes")]
    assert [values[0][n] for n in counts] == [values[1][n] for n in counts]
    for n in ("nodemodel.solves", "ctm.protocol_calls", "newell.headway_calls",
              "two_queue.protocol_calls", "control.calls", "network.build_calls"):
        assert values[0][n] > 0, n


def test_benchmark_json_lists_the_workloads_and_layer_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        doc = json.load(f)
    assert [w["name"] for w in doc["workloads"]] == list(harness.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == [
        (n, u) for n, u, *_ in LAYER_METRICS]
