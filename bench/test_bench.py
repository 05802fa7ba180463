"""Tests of the benchmark itself, at a tiny size.

Run with ``PYTHONPATH=src python -m pytest bench``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle
import run as bench

TINY = {
    "pipeline-plots": (2, 3, (20, 40), 0.02),
    "stagewise-hires": (2, 2, (50, 100), 0.02),
    "cluster-wide": (2, 4, (16, 32), 0.05),
}


@pytest.fixture(autouse=True)
def scratch_work_root(tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "WORK_ROOT", tmp_path / "work")
    monkeypatch.setattr(bench, "SETUP_REPEATS", 1)


def tiny(name: str) -> bench.Workload:
    return dataclasses.replace(bench.WORKLOADS[name], synth=TINY[name])


def prepared(name: str, seed: int = 3):
    workload = tiny(name)
    dataset_seed, dataset = bench.draw_dataset(workload, seed)
    ref = bench.build_reference(workload, dataset_seed, dataset)
    work = bench.WORK_ROOT / name
    work.mkdir(parents=True)
    workload.write_inputs(work, dataset, ref)
    return work, ref, workload.steps(work, ref)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed_with_its_unit(trace):
    record = bench.run(tiny("pipeline-plots"), seed=5, seconds=0.01, trace=bool(trace))
    result = json.loads(bench.result_line(record))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = bench.PER_LAYER if trace else bench.END_TO_END
    assert result["metrics"] == {
        name: {"value": result["metrics"][name]["value"], "unit": unit} for name, unit in names}
    text = "\n".join(bench.report(record))
    for name, unit in names + (("fail_ratio", "1"),):
        assert any(line.split()[:1] == [name] and f" {unit} " in line
                   for line in text.splitlines()), name
    if trace:
        assert "tracing overhead" in text
        assert record["unpatched"] == []
        metrics = result["metrics"]
        assert metrics["density.leaves"]["value"] == 2 * 6  # distances, then plots
        assert metrics["distances.pairs"]["value"] == 4 * 15
        assert metrics["hcluster.merges"]["value"] == 4 * 5
        assert metrics["svgplot.densities_s"]["value"] > 0


@pytest.mark.parametrize("name", sorted(TINY))
def test_second_seed_runs_and_each_seed_is_reproducible(name):
    first = bench.draw_dataset(tiny(name), 0)
    second = bench.draw_dataset(tiny(name), 1)
    again = bench.draw_dataset(tiny(name), 1)
    assert first[0] != second[0] and second[0] == again[0]
    assert all(np.array_equal(a.values, b.values)
               for a, b in zip(second[1].sequences, again[1].sequences))
    record = bench.run(tiny(name), seed=1, seconds=0.01, trace=False)
    assert record["failed"] == 0 and record["attempted"] == len(prepared(name, 1)[2])


def _corrupting(step: bench.Step, path: Path, edit) -> bench.Step:
    def check():
        path.write_text(edit(path.read_text()))
        return step.check()

    return dataclasses.replace(step, check=check)


def test_corrupted_matrix_counts_as_failed():
    work, ref, steps = prepared("stagewise-hires")
    target = work / "out" / "matrix_l1.csv"

    def nudge(text):
        lines = text.splitlines()
        cells = lines[1].split(",")
        cells[2] = repr(float(cells[2]) + 1e-9)
        return "\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n"

    steps[1] = _corrupting(steps[1], target, nudge)
    it = bench.run_iteration(work, steps, "test", traced=False)
    assert (it.attempted, it.failed) == (2, 1)
    assert any("matrix_l1.csv" in p for p in it.problems)


@pytest.mark.parametrize("edit", ["height", "cut", "newick"])
def test_corrupted_dendrogram_counts_as_failed(edit):
    work, ref, steps = prepared("cluster-wide")
    out = work / "out" / "single"
    index = bench.LINKAGES.index("single")
    if edit == "height":
        def change(text):
            doc = json.loads(text)
            doc["merges"][-1]["height"] += 1e-9
            return json.dumps(doc)
        target = out / "dendrogram.json"
    elif edit == "cut":
        def change(text):
            doc = json.loads(text)
            first = next(iter(doc["assignment"]))
            doc["assignment"][first] = (doc["assignment"][first] + 1) % bench.CUT_K
            return json.dumps(doc)
        target = out / "clusters.json"
    else:
        def change(text):
            return text.replace(",", "", 1)
        target = out / "dendrogram.nwk"
    steps[index] = _corrupting(steps[index], target, change)
    it = bench.run_iteration(work, steps, "test", traced=False)
    assert (it.attempted, it.failed) == (3, 1)
    assert all(p.startswith("cluster: ") and target.name in p for p in it.problems)


def test_failed_invocation_counts_as_failed():
    work, ref, steps = prepared("cluster-wide")
    steps[0] = dataclasses.replace(steps[0], args=steps[0].args + ["--cut", "9999"])
    it = bench.run_iteration(work, steps, "test", traced=False)
    assert (it.attempted, it.failed) == (3, 1)
    assert "exit 2" in it.problems[0]


def test_oracle_clustering_tie_break_and_cut():
    matrix = np.array([[0, 2, 1, 1], [2, 0, 1, 3], [1, 1, 0, 2], [1, 3, 2, 0]], dtype=float)
    merges = oracle.agglomerate(matrix, "single")
    # Three pairs tie at height 1; the smallest (id, id) pair (0, 2) goes first.
    assert merges == [(0, 2, 1.0), (1, 4, 1.0), (3, 5, 1.0)]
    assert oracle.cut(merges, 4, 2) == [0, 0, 0, 1]
    assert oracle.agglomerate(matrix, "complete")[:2] == [(0, 2, 1.0), (1, 4, 2.0)]


def test_oracle_newick_parser():
    assert oracle.newick_leaves("((a:1,'b c':1.5):0.5,(d:1,e:1):1);") == ["a", "b c", "d", "e"]
    assert oracle.newick_leaves("(" * 3000 + "x:1" + ",y:1)" * 3000 + ";") == ["x"] + ["y"] * 3000
    for bad in ("(a,b)", "(a,b;", "(a,,b);", "a,b);", "(a:x,b);"):
        with pytest.raises(ValueError):
            oracle.newick_leaves(bad)


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(bench.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cluster-wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""
