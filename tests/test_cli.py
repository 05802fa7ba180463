import argparse
import codecs
import contextlib
import errno
import io
import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from leafclust import (
    CcdSequence, Dataset, DistanceKind, DistanceTag, InvalidCcdError, agglomerate,
    distance_matrix, normalize_leaf, read_dataset, read_matrix, write_dataset,
    write_dendrogram, write_densities, write_matrix,
)
from leafclust import cli
from leafclust.cli import main


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def two_leaf_csv(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("id,value\na,1\na,2\na,3\nb,3\nb,1\nb,2\n")
    return path


@pytest.fixture
def four_leaf_json(tmp_path):
    rng = np.random.default_rng(60)
    seqs = tuple(helpers.directional_ccd(rng, (30, 60), f"s{i}") for i in range(4))
    path = tmp_path / "four.json"
    write_dataset(Dataset(seqs), path, "json")
    return path


class TestSynthCommand:
    def test_writes_labeled_dataset(self, tmp_path, capsys):
        out = tmp_path / "synthetic.json"
        assert run("synth", "--groups", 2, "--per-group", 2, "--n-min", 30,
                   "--n-max", 50, "--seed", 5, "--output", out) == 0
        ds = read_dataset(out, "json")
        assert len(ds.sequences) == 4
        assert set(ds.groups.values()) == {"G1", "G2"}
        assert "wrote" in capsys.readouterr().out

    def test_bad_range_is_input_error(self, tmp_path):
        out = tmp_path / "synthetic.json"
        assert run("synth", "--n-min", 50, "--n-max", 10, "--output", out) == 1


class TestPipelineCommand:
    def test_two_leaf_single_distance(self, two_leaf_csv, tmp_path):
        out = tmp_path / "out"
        assert run("pipeline", "--input", two_leaf_csv, "--format", "csv",
                   "--distance", "l1", "--outdir", out) == 0
        assert (out / "matrix_l1.csv").exists()
        assert (out / "matrix_l1.json").exists()
        assert (out / "dendrogram_l1.json").exists()
        assert (out / "dendrogram_l1.nwk").exists()
        assert (out / "dendrogram_l1.svg").exists()
        assert (out / "densities_unrotated.svg").exists()
        assert (out / "densities_normalized.svg").exists()
        assert (out / "leaves_unrotated.svg").exists()
        assert (out / "leaves_rotated.svg").exists()
        merges = json.loads((out / "dendrogram_l1.json").read_text())["merges"]
        assert len(merges) == 1

    def test_all_distances_fan_out(self, four_leaf_json, tmp_path):
        out = tmp_path / "out"
        assert run("pipeline", "--input", four_leaf_json, "--format", "json",
                   "--distance", "all", "--outdir", out, "--no-plots") == 0
        for name in ("l1", "sup", "hellinger", "moments"):
            assert (out / f"matrix_{name}.csv").exists()
            assert (out / f"dendrogram_{name}.nwk").exists()
        assert not (out / "densities_normalized.svg").exists()
        assert not (out / "dendrogram_l1.svg").exists()

    def test_cut_writes_assignment(self, four_leaf_json, tmp_path):
        out = tmp_path / "out"
        assert run("pipeline", "--input", four_leaf_json, "--format", "json",
                   "--distance", "l1", "--cut", 2, "--outdir", out,
                   "--no-plots") == 0
        doc = json.loads((out / "clusters_l1.json").read_text())
        assert doc["k"] == 2
        assert len(doc["assignment"]) == 4
        assert set(doc["assignment"].values()) == {0, 1}

    def test_missing_input_is_exit_1(self, tmp_path):
        assert run("pipeline", "--input", tmp_path / "nope.csv",
                   "--outdir", tmp_path / "out") == 1

    def test_negative_value_is_exit_1_with_record_id(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,value\na,1\na,-2\n")
        assert run("pipeline", "--input", bad, "--outdir", tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert "'a'" in err and "row 3" in err

    def test_cut_out_of_range_is_exit_2(self, two_leaf_csv, tmp_path):
        assert run("pipeline", "--input", two_leaf_csv, "--distance", "l1",
                   "--cut", 9, "--outdir", tmp_path / "out", "--no-plots") == 2

    def test_dendrogram_title_names_the_linkage(self, four_leaf_json, tmp_path):
        out = tmp_path / "out"
        assert run("pipeline", "--input", four_leaf_json, "--format", "json",
                   "--distance", "l1", "--linkage", "single", "--outdir", out) == 0
        svg = (out / "dendrogram_l1.svg").read_text()
        assert "single linkage" in svg
        assert "complete linkage" not in svg

    def test_byte_identical_reruns(self, four_leaf_json, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert run("pipeline", "--input", four_leaf_json, "--format", "json",
                       "--distance", "all", "--cut", 2, "--outdir", out) == 0
        files1 = sorted(p.name for p in out1.iterdir())
        files2 = sorted(p.name for p in out2.iterdir())
        assert files1 == files2 and files1
        for name in files1:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


    @pytest.mark.parametrize("values", [[1e308] * 3, [1e-320, 2e-320, 3e-320]])
    def test_extreme_scales_run_to_the_end(self, values, tmp_path):
        data = tmp_path / "extreme.json"
        data.write_text(json.dumps({"a": values, "b": [1.0, 2.0, 4.0]}))
        assert run("pipeline", "--input", data, "--format", "json", "--distance", "all",
                   "--outdir", tmp_path / "out") == 0

    def test_closed_stdout_stops_the_lines_not_the_run(self, four_leaf_json, tmp_path,
                                                       monkeypatch, capsys):
        argv = ("pipeline", "--input", four_leaf_json, "--format", "json",
                "--distance", "all", "--cut", 2, "--outdir")
        opened, closed = tmp_path / "open", tmp_path / "closed"
        assert run(*argv, opened) == 0
        capsys.readouterr()
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        pipe = _ClosedPipe(fd)
        try:
            with monkeypatch.context() as mp:
                mp.setattr(sys, "stdout", pipe)
                assert run(*argv, closed) == 0
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)
        assert pipe.writes > 0
        assert capsys.readouterr().err == ""
        names = sorted(p.name for p in opened.iterdir())
        assert sorted(p.name for p in closed.iterdir()) == names
        for name in names:
            assert (opened / name).read_bytes() == (closed / name).read_bytes(), name


class _ClosedPipe:
    """A stdout whose reader has gone: every write fails as a closed pipe does."""

    def __init__(self, fd: int):
        self._fd = fd
        self.writes = 0

    def write(self, text):
        self.writes += 1
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self._fd


def _fail(*args, **kwargs):
    raise InvalidCcdError("injected failure")


def _case(stage, code, argv, broken=None, name=None, config=None, says=""):
    """One CLI run that must fail in ``stage`` with exit ``code``.

    ``argv`` has {d} for the data directory; ``broken`` names a function the
    CLI calls that is replaced by one raising InvalidCcdError; ``config`` is
    the text of {d}/run.cfg; ``says`` is how the error line goes on after
    the stage, with {d} for the data directory.
    """
    return pytest.param(stage, code, argv, broken, config, says, id=name or stage)


def _config_case(line, command="pipeline"):
    return _case("config", 1, f"{command} --input {{d}}/four.json --format json "
                              "--config {d}/run.cfg --outdir {d}/out",
                 name=f"config-{line.replace(' ', '')}", config=line)


EXIT_CODES = [
    _case("config", 1, "pipeline --config {d}/nope.cfg", name="config-file"),
    _case("config", 1, "pipeline --outdir {d}/out", name="config-input"),
    _case("config", 1, "pipeline --input {d}/four.json --format json --r 0 --outdir {d}/out",
          name="config-r"),
    _config_case("r = abc"),
    _config_case("r = 2.5"),
    _config_case("cut = 2.5"),
    _config_case("linkage = ward"),
    _config_case("distance = foo"),
    _config_case("format = xml", command="densify"),
    _config_case("no_plots = maybe"),
    _config_case("linkge = single"),
    _config_case("config = other.cfg"),
    _case("config", 1, "distmat --input {d}/four.json --format json --r abc --outdir {d}/out",
          name="config-flag-r-abc"),
    _case("config", 1, "pipeline --input {d}/four.json --format json --distance foo "
                       "--outdir {d}/out", name="config-flag-distance-foo"),
    _case("config", 1, "pipeline --input {d}/four.json --format json --linkge single "
                       "--outdir {d}/out", name="config-flag-unknown"),
    _case("config", 1, "", name="config-no-subcommand"),
    _case("config", 1, "pipeline --input {d}/four.json --format json --distance l1 --cut 0 "
                       "--outdir {d}/out", name="config-cut"),
    _config_case("cut = 0"),
    _config_case("cut = -3", command="cluster"),
    _case("read-dataset", 1, "pipeline --input {d}/nope.csv --outdir {d}/out"),
    _case("read-densities", 1,
          "distmat --input {d}/four.json --format densities --outdir {d}/out"),
    _case("read-dataset", 1, "pipeline --input {d}/one.csv --outdir {d}/out",
          name="read-dataset-one-leaf-pipeline"),
    _case("read-dataset", 1, "distmat --input {d}/one.csv --outdir {d}/out",
          name="read-dataset-one-leaf-distmat"),
    _case("read-densities", 1,
          "distmat --input {d}/one.densities.json --format densities --outdir {d}/out",
          name="read-densities-one-leaf"),
    _case("read-densities", 1,
          "distmat --input {d}/flag.densities.json --format densities --outdir {d}/out",
          name="read-densities-flag-string"),
    _case("read-matrix", 1, "cluster --input {d}/nope.csv --outdir {d}/out"),
    _case("read-dataset", 1, "densify --input {d}/long_header.csv --outdir {d}/out",
          name="read-dataset-csv-field-limit-header"),
    _case("read-dataset", 1, "densify --input {d}/long_value.csv --outdir {d}/out",
          name="read-dataset-csv-field-limit-before-bad-record"),
    _case("read-matrix", 1, "cluster --input {d}/long_cell.csv --outdir {d}/out",
          name="read-matrix-csv-field-limit"),
    _case("read-matrix", 1, "cluster --input {d}/underscore_cell.csv --outdir {d}/out",
          name="read-matrix-underscore-cell"),
    _case("read-matrix", 1, "cluster --input {d}/order.json --format json --outdir {d}/out",
          name="read-matrix-moment-order-beyond-bound"),
    _case("read-dataset", 1, "densify --input {d}/int_group.json --format json --outdir {d}/out",
          name="read-dataset-group-not-string"),
    _case("read-dendrogram", 1,
          "plot --input {d}/four.json --format json --dendrogram {d}/nope.json --outdir {d}/out"),
    _case("read-dendrogram", 1, "plot --input {d}/four.json --format json "
                                "--dendrogram {d}/inf_height.json --outdir {d}/out",
          name="read-dendrogram-infinite-height"),
    _case("read-dendrogram", 1, "plot --input {d}/four.json --format json "
                                "--dendrogram {d}/nan_height.json --outdir {d}/out",
          name="read-dendrogram-nan-height"),
    _case("read-dendrogram", 1, "plot --input {d}/four.json --format json "
                                "--dendrogram {d}/one_leaf.json --outdir {d}/out",
          name="read-dendrogram-one-leaf"),
    _case("read-dendrogram", 1, "plot --input {d}/four.json --format json "
                                "--dendrogram {d}/bad_size.json --outdir {d}/out",
          name="read-dendrogram-sizes-do-not-add-up"),
    _case("read-dendrogram", 1, "plot --input {d}/four.json --format json "
                                "--dendrogram {d}/neg_height.json --outdir {d}/out",
          name="read-dendrogram-negative-height",
          says="{d}/neg_height.json: bad dendrogram schema: merge 0: negative height"),
    _case("read-dataset", 1, "densify --input {d}/nan.csv --outdir {d}/out",
          name="read-dataset-csv-nan",
          says="{d}/nan.csv: row 3: non-finite CCD value for id 'a'"),
    _case("read-dataset", 1, "densify --input {d}/nan.json --format json --outdir {d}/out",
          name="read-dataset-json-nan", says="{d}/nan.json: sequence 'a': non-finite value"),
    _case("read-dataset", 1, "densify --input {d}/nested.json --format json --outdir {d}/out",
          name="read-dataset-json-two-dimensional",
          says="{d}/nested.json: sequence 'a': values must be one-dimensional"),
    _case("read-matrix", 1, "cluster --input {d}/wide.json --format json --outdir {d}/out",
          name="read-matrix-entries-wider-than-labels",
          says="{d}/wide.json: bad matrix schema: entries must be 2x2"),
    _case("synth", 1, "synth --n-min 50 --n-max 10 --output {d}/s.json"),
    _case("synth", 1, "synth --groups 1 --per-group 2 --n-min 10 --n-max 20 --noise nan "
                      "--output {d}/s.json", name="synth-noise-nan"),
    _case("synth", 1, "synth --groups 1 --per-group 2 --n-min 10 --n-max 20 "
                      "--config {d}/run.cfg --output {d}/s.json",
          name="synth-config-noise-nan", config="noise = nan"),
    _case("cut", 2, "pipeline --input {d}/four.json --format json --distance l1 --cut 9 "
                    "--no-plots --outdir {d}/out"),
    _case("normalize", 2, "densify --input {d}/four.json --format json --outdir {d}/out",
          "normalize_leaf"),
    _case("distances-l1", 2, "distmat --input {d}/four.json --format json --distance l1 "
                             "--outdir {d}/out", "distance_matrix"),
    _case("cluster", 2, "pipeline --input {d}/four.json --format json --distance l1 "
                        "--no-plots --outdir {d}/out", "agglomerate"),
    _case("plot", 2, "plot --input {d}/four.json --format json --outdir {d}/out",
          "leaf_outline"),
    _case("write", 1, "synth --groups 2 --per-group 2 --n-min 30 --n-max 50 "
                      "--output {d}/missing/s.json", name="write-output"),
    _case("write", 1, "densify --input {d}/four.json --format json --outdir {d}/four.json",
          name="write-outdir"),
    # A config-file path with a NUL byte, which argv cannot carry: the error
    # names the path, and the file was never opened, so no schema is blamed.
    _case("read-dataset", 1, "densify --format json --config {d}/run.cfg --outdir {d}/out",
          name="read-dataset-config-nul-input", config="input = a\0b.json",
          says="a\\x00b.json: cannot open: embedded null byte"),
    _case("write", 1, "densify --input {d}/four.json --format json --config {d}/run.cfg",
          name="write-config-nul-outdir", config="outdir = d\0x",
          says="d\\x00x: embedded null byte"),
    _case("write", 1, "synth --groups 2 --per-group 2 --n-min 30 --n-max 50 "
                      "--config {d}/run.cfg", name="write-config-nul-output",
          config="output = s\0.json", says="s\\x00.json: embedded null byte"),
]


@pytest.mark.parametrize("stage,code,argv,broken,config,says", EXIT_CODES)
def test_stage_failures_map_to_exit_codes(stage, code, argv, broken, config, says,
                                          four_leaf_json, monkeypatch, capsys):
    d = four_leaf_json.parent
    _write_one_leaf_inputs(d)
    _write_long_field_inputs(d)
    _write_bad_dendrograms(d)
    _write_mistyped_json_inputs(d)
    _write_bad_value_inputs(d)
    if broken is not None:
        monkeypatch.setattr(cli, broken, _fail)
    if config is not None:
        (d / "run.cfg").write_text(config + "\n")
    before = sorted(d.rglob("*"))
    assert main(argv.format(d=d).split()) == code
    assert f"leafclust: error [{stage}] {says.format(d=d)}" in capsys.readouterr().err
    if stage in ("config", "write", "read-dataset", "read-densities", "read-matrix",
                 "read-dendrogram"):
        assert sorted(d.rglob("*")) == before


def _write_one_leaf_inputs(d):
    """``one.csv`` and ``one.densities.json``: a dataset and its densities, one leaf each."""
    (d / "one.csv").write_text("id,value\na,1\na,2\na,4\n")
    write_densities([normalize_leaf(CcdSequence("a", [1.0, 2.0, 4.0]))],
                    d / "one.densities.json")


def _write_long_field_inputs(d):
    """CSV inputs with a field over ``csv``'s 131,072-character limit: in a
    dataset header, in a value before a bad record and in a matrix cell."""
    pad = " " * 140_000
    (d / "long_header.csv").write_text(f"id,{pad}value\na,1\na,2\nb,1\nb,3\n")
    (d / "long_value.csv").write_text(f"id,value\na,{pad}1\na,2\nb,x\nb,3\n")
    (d / "long_cell.csv").write_text(f",a,b\na,0,{pad}1\nb,1,0\n")


def _write_bad_dendrograms(d):
    """Dendrograms of four.json whose last merge height is ``Infinity`` or
    ``NaN``, both of which Python's JSON reader accepts, or whose first merge
    claims 7 leaves."""
    for name, height, size in (("inf_height", math.inf, 2), ("nan_height", math.nan, 2),
                               ("bad_size", 3.0, 7)):
        merges = [(0, 1, 1.0, size), (2, 3, 2.0, 2), (4, 5, height, 4)]
        (d / f"{name}.json").write_text(json.dumps({
            "labels": ["s0", "s1", "s2", "s3"],
            "merges": [dict(zip(("left", "right", "height", "size"), m)) for m in merges]}))


def _write_mistyped_json_inputs(d):
    """``flag.densities.json``, two densities whose ``direction_defined`` is
    the string "no", ``one_leaf.json``, a dendrogram of one leaf,
    ``int_group.json``, a dataset whose groups are not strings,
    ``underscore_cell.csv``, a matrix with the cell ``1_5``, and
    ``order.json``, a moments matrix of moment order 1,001."""
    write_densities([normalize_leaf(CcdSequence(i, [1.0, 2.0, 4.0])) for i in "ab"],
                    d / "flag.densities.json")
    doc = json.loads((d / "flag.densities.json").read_text())
    doc["densities"]["a"]["direction_defined"] = "no"
    (d / "flag.densities.json").write_text(json.dumps(doc))
    (d / "one_leaf.json").write_text('{"labels": ["a"], "merges": []}')
    (d / "int_group.json").write_text(
        '{"a": [1, 2, 3], "b": [3, 1, 2], "groups": {"a": 1, "b": true}}')
    (d / "underscore_cell.csv").write_text(",a,b\na,0,1_5\nb,1_5,0\n")
    (d / "order.json").write_text(json.dumps({
        "labels": ["a", "b"], "kind": {"tag": "moments", "moment_order": 1001},
        "entries": [[0, 1], [1, 0]]}))


def _write_bad_value_inputs(d):
    """Inputs a reader rejects for a value: ``nan.csv`` and ``nan.json``, traces
    holding NaN, ``nested.json``, a trace of pairs, ``wide.json``, a matrix of 2
    labels and 3 x 3 entries, and ``neg_height.json``, a dendrogram of four.json
    whose first merge height is negative."""
    (d / "nan.csv").write_text("id,value\na,1\na,nan\nb,2\nb,3\n")
    (d / "nan.json").write_text('{"a": [1, NaN, 2], "b": [1, 2]}')
    (d / "nested.json").write_text('{"a": [[1, 2], [3, 4]], "b": [1, 2]}')
    (d / "wide.json").write_text(json.dumps({
        "labels": ["a", "b"], "kind": {"tag": "l1", "moment_order": 0},
        "entries": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}))
    merges = [(0, 1, -1.0, 2), (2, 3, 2.0, 2), (4, 5, 3.0, 4)]
    (d / "neg_height.json").write_text(json.dumps({
        "labels": ["s0", "s1", "s2", "s3"],
        "merges": [dict(zip(("left", "right", "height", "size"), m)) for m in merges]}))


def _duplicate_density_id(path):
    """Densities ``a`` and ``b`` whose ``b`` is renamed ``a``: the JSON object
    then holds the key ``a`` twice."""
    write_densities([normalize_leaf(CcdSequence(i, [1.0, 2.0, 4.0])) for i in "ab"], path)
    path.write_text(path.read_text().replace('"b":{', '"a":{'))


def _not_utf8_density_id(path):
    """Densities ``a`` and ``b`` whose id ``b`` is the byte 0xff."""
    write_densities([normalize_leaf(CcdSequence(i, [1.0, 2.0, 4.0])) for i in "ab"], path)
    path.write_bytes(path.read_bytes().replace(b'"b":{', b'"\xff":{'))


def _nan_breakpoint(path):
    """Densities ``a`` and ``b`` whose ``a`` has a NaN breakpoint, which JSON reads."""
    write_densities([normalize_leaf(CcdSequence(i, [1.0, 2.0, 4.0])) for i in "ab"], path)
    doc = json.loads(path.read_text())
    doc["densities"]["a"]["breakpoints"][1] = math.nan
    path.write_text(json.dumps(doc))


def _true_breakpoint(path):
    """Densities ``a`` and ``b`` whose ``a`` has the breakpoint ``true``."""
    step = {"heights": [0.1, 0.2, 0.3], "rotation": 0.0, "direction_defined": True}
    path.write_text(json.dumps({"densities": {"a": {"breakpoints": [1, True, 6], **step},
                                              "b": {"breakpoints": [1, 2, 6], **step}}}))


_NOT_UTF8 = "cannot decode as utf-8: invalid start byte"
# JSON nested too deep for the decoder, and an integer with more digits than
# int() converts by default: their messages come from the Python version's json.
_DEEP_JSON = '{"a": ' + "[" * 100_000 + "]" * 100_000 + "}"
_HUGE_INT_JSON = '{"a": [1' + "0" * 4999 + ', 2, 3], "b": [1, 2, 1]}'


def _json_loads_error(text):
    """How the dataset reader reports the error ``json.loads(text)`` raises."""
    try:
        json.loads(text)
    except RecursionError as exc:
        return f"invalid JSON: {exc}"
    except ValueError as exc:
        return f"bad dataset schema: {exc}"


_JSON_DATASET = json.dumps({f"s{i}": list(range(i, i + 300)) for i in range(40)})
# An id and a number token of 50,000 characters: messages quote them shortened.
_LONG_ID = "a" * 50_000
_SHORT_ID = "'aaaaaaaaaaaa...aaaaaaaaaaaaa'"


def _matrix_json(tag):
    """A 2x2 matrix JSON whose distance kind is ``tag``."""
    return json.dumps({"labels": ["a", "b"], "kind": {"tag": tag, "moment_order": 5},
                       "entries": [[0, 1], [1, 0]]})


# input -> (subcommand and format, how to write it, stage, message after the path)
_NAMED_INPUT_ERRORS = {
    "header_only.csv": ("densify --format csv", lambda p: p.write_text("id,value\n"),
                        "read-dataset", "dataset is empty"),
    "line\nbreak.csv": ("densify --format csv", lambda p: p.write_text("id,value\n"),
                        "read-dataset", "dataset is empty"),
    "unknown_group.json": (
        "densify --format json",
        lambda p: p.write_text('{"a": [1, 2, 3], "groups": {"b": "x"}}'),
        "read-dataset", "groups refer to unknown ids: ['b']"),
    "duplicate_id.json": (
        "densify --format json",
        lambda p: p.write_text('{"a": [1,2,3], "b": [1,1,1], "a": [5,5,9]}'),
        "read-dataset", "duplicate key 'a'"),
    "duplicate_id.densities.json": ("distmat --format densities", _duplicate_density_id,
                                    "read-densities", "duplicate key 'a'"),
    "not_utf8.csv": ("densify --format csv", lambda p: p.write_bytes(b"id,value\n\xff,1\n"),
                     "read-dataset", _NOT_UTF8),
    # The first 8 KiB decode cleanly: the byte is met only once the vectorized read is under way.
    "late_not_utf8.csv": (
        "densify --format csv",
        lambda p: p.write_bytes(b"id,value\n" + b"a,1\n" * 5000 + b"b\xff,1\n"),
        "read-dataset", _NOT_UTF8),
    "not_utf8.json": ("densify --format json", lambda p: p.write_bytes(b'{"a\xff": [1, 2, 3]}'),
                      "read-dataset", _NOT_UTF8),
    "not_utf8_matrix.csv": ("cluster --format csv",
                            lambda p: p.write_bytes(b",a,b\na,0,1\nb\xff,1,0\n"),
                            "read-matrix", _NOT_UTF8),
    "not_utf8.densities.json": ("distmat --format densities", _not_utf8_density_id,
                                "read-densities", _NOT_UTF8),
    "deep.json": ("densify --format json", lambda p: p.write_text(_DEEP_JSON),
                  "read-dataset", _json_loads_error(_DEEP_JSON)),
    "huge_int.json": ("densify --format json", lambda p: p.write_text(_HUGE_INT_JSON),
                      "read-dataset", _json_loads_error(_HUGE_INT_JSON)),
    # A JSON dataset read as CSV: its first record is the whole document.
    "dataset.json": (
        "densify --format csv", lambda p: p.write_text(_JSON_DATASET), "read-dataset",
        "expected header 'id,value', got ['{\"s0\": [0', ' 1', ' 2', ' 3', ' 4', ' 5', ...]"),
    "asymmetric_matrix.csv": ("cluster --format csv",
                              lambda p: p.write_text(",a,b\na,0,1\nb,2,0\n"),
                              "read-matrix", "bad matrix schema: entries must be exactly symmetric"),
    "duplicate_label_matrix.csv": (
        "cluster --format csv", lambda p: p.write_text(",a,a\na,0,1\na,1,0\n"),
        "read-matrix", "bad matrix schema: duplicate labels in distance matrix"),
    "nan_breakpoint.densities.json": (
        "distmat --format densities", _nan_breakpoint,
        "read-densities", "bad densities schema: breakpoints must be strictly increasing"),
    # "\ud800" is a lone surrogate: JSON reads it, UTF-8 cannot encode it.
    "surrogate_id.json": (
        "pipeline --format json",
        lambda p: p.write_text('{"a\\ud800": [1, 2, 3, 4], "c": [2, 1, 2, 1]}'),
        "read-dataset", "'a\\ud800' is not valid Unicode"),
    "surrogate_group.json": (
        "densify --format json",
        lambda p: p.write_text('{"a": [1, 2, 3], "groups": {"a": "x\\udfff"}}'),
        "read-dataset", "'x\\udfff' is not valid Unicode"),
    "long_bad_number.csv": (
        "densify --format csv",
        lambda p: p.write_text("id,value\na,1\na," + "9" * 50_000 + "x\na,3\n"),
        "read-dataset", "row 3: bad number '999999999999...999999999999x' for id 'a'"),
    "long_id_negative.json": (
        "densify --format json", lambda p: p.write_text(json.dumps({_LONG_ID: [1, -2, 3]})),
        "read-dataset", f"sequence {_SHORT_ID}: negative CCD value -2.0 at position 1"),
    "long_id_negative.csv": (
        "densify --format csv",
        lambda p: p.write_text(f"id,value\n{_LONG_ID},1\n{_LONG_ID},-2\n"),
        "read-dataset", f"row 3: negative CCD value for id {_SHORT_ID}"),
    "long_unknown_group.json": (
        "densify --format json",
        lambda p: p.write_text(json.dumps({"b": [1, 2, 3], "groups": {_LONG_ID: "x"}})),
        "read-dataset", f"groups refer to unknown ids: [{_SHORT_ID}]"),
    # Seven unknown ids or more: the list is cut after six.
    "many_unknown_groups.json": (
        "densify --format json",
        lambda p: p.write_text(json.dumps({"a": [1, 2, 3],
                                           "groups": {f"u{i}": "x" for i in range(9)}})),
        "read-dataset", "groups refer to unknown ids: ['u0', 'u1', 'u2', 'u3', 'u4', 'u5', ...]"),
    "long_key_not_array.json": (
        "densify --format json", lambda p: p.write_text(json.dumps({_LONG_ID: 5})),
        "read-dataset", f"bad dataset schema: {_SHORT_ID} must be an array of numbers, got 5"),
    "long_duplicate_key.json": (
        "densify --format json",
        lambda p: p.write_text(f'{{"{_LONG_ID}": [1, 2, 3], "{_LONG_ID}": [1, 2, 3]}}'),
        "read-dataset", f"duplicate key {_SHORT_ID}"),
    "long_surrogate_key.json": (
        "densify --format json",
        lambda p: p.write_text(f'{{"{_LONG_ID}\\ud800": [1, 2, 3]}}'),
        "read-dataset", "'aaaaaaaaaaaa...aaaaaaa\\ud800' is not valid Unicode"),
    "long_bad_cell.csv": (
        "cluster --format csv",
        lambda p: p.write_text(",a,b\na,0," + "9" * 50_000 + "x\nb,1,0\n"),
        "read-matrix",
        "row 2: could not convert string to float: '999999999999...999999999999x'"),
    "long_kind_tag.json": (
        "cluster --format json", lambda p: p.write_text(_matrix_json(_LONG_ID)),
        "read-matrix", f"bad matrix schema: {_SHORT_ID} is not a valid DistanceTag"),
    "list_kind_tag.json": (
        "cluster --format json", lambda p: p.write_text(_matrix_json([0] * 20_000)),
        "read-matrix", "bad matrix schema: [0, 0, 0, 0, 0, 0, ...] is not a valid DistanceTag"),
    # true and false are no numbers, though np.array reads them as 1 and 0.
    "true_value.json": (
        "densify --format json",
        lambda p: p.write_text('{"a": [true, 2.5, 3], "b": [1, 2, 2]}'),
        "read-dataset", "bad dataset schema: 'a' must be an array of numbers, got [True, 2.5, 3]"),
    "true_breakpoint.densities.json": (
        "distmat --format densities", _true_breakpoint, "read-densities",
        "bad densities schema: 'breakpoints' must be an array of numbers, got [1, True, 6]"),
    "true_entry.json": (
        "cluster --format json",
        lambda p: p.write_text(_matrix_json("l1").replace("[[0, 1]", "[[0, true]")),
        "read-matrix",
        "bad matrix schema: 'entries' must be an array of numbers, got [[0, True], [1, 0]]"),
    "empty.csv": ("densify --format csv", lambda p: p.write_text(""),
                  "read-dataset", "empty file"),
    # Blank records count in the row numbers of the row-by-row scan.
    "blank_then_negative.csv": ("densify --format csv",
                                lambda p: p.write_text("id,value\na,1\n\na,-2\n"),
                                "read-dataset", "row 4: negative CCD value for id 'a'"),
    "ragged.json": (
        "densify --format json", lambda p: p.write_text('{"a": [[1, 2], [3]]}'),
        "read-dataset", "bad dataset schema: 'a' must be an array of numbers, got [[1, 2], [3]]"),
    "missing_row_matrix.csv": ("cluster --format csv", lambda p: p.write_text(",a,b\na,0,1\n"),
                               "read-matrix", "expected 2 data rows"),
    "row_out_of_order_matrix.csv": (
        "cluster --format csv", lambda p: p.write_text(",a,b\nb,1,0\na,0,1\n"),
        "read-matrix", "malformed row 2"),
    # --format densities is a choice of every subcommand but only distmat reads densities.
    "matrix.densities.json": ("cluster --format densities",
                              lambda p: p.write_text(_matrix_json("l1")),
                              "read-matrix", "unknown matrix format 'densities'"),
    "dataset.densities.json": (
        "densify --format densities",
        lambda p: write_densities([normalize_leaf(CcdSequence("a", [1.0, 2.0, 4.0]))], p),
        "read-dataset", "unknown dataset format 'densities'"),
}


@pytest.mark.parametrize("name", _NAMED_INPUT_ERRORS)
def test_input_error_names_the_file_once(name, tmp_path, capsys):
    """An input error is exit 1 in its read stage, writes nothing, names
    the input file exactly once and stays under 1 KB, however large the
    input; a JSON key given twice is such an error."""
    command, write, stage, message = _NAMED_INPUT_ERRORS[name]
    path = tmp_path / name
    write(path)
    assert main([*command.split(), "--input", str(path), "--outdir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    shown = str(path).replace("\n", "\\n")  # a line break in the name shows escaped
    assert err == f"leafclust: error [{stage}] {shown}: {message}\n"
    assert len(err.encode()) < 1024
    assert sorted(tmp_path.iterdir()) == [path]


# config line -> the message after "<file>:1: "
_LONG_CONFIG_LINES = {
    "key": (f"{_LONG_ID} = 1", f"unknown option {_SHORT_ID}"),
    "choice": (f"linkage = {_LONG_ID}",
               f"linkage: invalid choice {_SHORT_ID} (choose from complete, single, average)"),
    "int": (f"r = {_LONG_ID}", f"r: invalid int value {_SHORT_ID}"),
    "flag": (f"no_plots = {_LONG_ID}", f"no_plots: expected true or false, got {_SHORT_ID}"),
}


@pytest.mark.parametrize("name", _LONG_CONFIG_LINES)
def test_long_config_input_gives_a_short_error(name, four_leaf_json, tmp_path, capsys):
    line, message = _LONG_CONFIG_LINES[name]
    config = tmp_path / "long.cfg"
    config.write_text(line + "\n")
    assert main(["pipeline", "--input", str(four_leaf_json), "--format", "json",
                 "--config", str(config), "--outdir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == f"leafclust: error [config] {config}:1: {message}\n"
    assert len(err.encode()) < 1024


# argv -> the stage and start of the message (argparse and the OS word the
# rest differently by version)
_LONG_ARGUMENTS = {
    "choice": (["pipeline", "--input", "x.json", "--linkage", "a" * 50_000],
               "[config] argument --linkage: invalid choice: "),
    "int": (["pipeline", "--input", "x.json", "--r", "9" * 5_000],
            "[config] argument --r: invalid int value: "),
    "unknown flag": (["pipeline", "--input", "x.json", "--bogus", "b" * 5_000],
                     "[config] unrecognized arguments: --bogus "),
    "subcommand": (["c" * 5_000], "[config] argument command: invalid choice: "),
    "ambiguous flag": (["synth", "--n=" + "n" * 5_000], "[config] ambiguous option: --n="),
    "many unknown arguments": (["pipeline", "--input", "x.json", *["ab"] * 50_000],
                               "[config] unrecognized arguments: ab ab "),
    "input path": (["pipeline", "--input", "p" * 4_000], "[read-dataset] "),
    "output directory": (["synth", "--groups", "1", "--per-group", "2", "--n-min", "3",
                          "--n-max", "9", "--output", "o" * 3_000 + "/s.json"], "[write] "),
    "line break": (["pipeline", "--input", "x.json", "a\nb\r\x85c\u2028d"],
                   "[config] unrecognized arguments: a\\nb\\r\\x85c\\u2028d\n"),
    "four-byte characters": (["pipeline", "--input", "\U0001F600" * 4_000], "[read-dataset] "),
    "two-byte characters": (["pipeline", "--input", "x.json", "--linkage", "\u00e9" * 4_000],
                            "[config] argument --linkage: invalid choice: "),
}


@pytest.mark.parametrize("name", _LONG_ARGUMENTS)
def test_long_argument_gives_a_short_error(name, tmp_path, capsys, monkeypatch):
    """A long flag value, argument list or path, or one with line breaks or
    non-ASCII text, gives one short line that keeps its start and end: the
    stage, the flag name and the choices stay."""
    argv, start = _LONG_ARGUMENTS[name]
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"leafclust: error {start}")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert len(err.encode()) < 1024
    assert list(tmp_path.iterdir()) == []
    if name == "choice":
        assert "average" in err


@pytest.mark.parametrize("length", [500, 501])
def test_stage_error_keeps_the_start_and_end_of_a_long_message(length):
    message = "".join(chr(ord("a") + i % 26) for i in range(length))
    shown = message if length <= 500 else f"{message[:250]}...{message[-250:]}"
    assert str(cli.StageError("config", message)) == f"[config] {shown}"


@pytest.mark.parametrize("message,shown", [
    ("\u00e9" * 300, "\u00e9" * 125 + "..." + "\u00e9" * 125),
    ("x" + "\U0001F600" * 200, "x" + "\U0001F600" * 62 + "..." + "\U0001F600" * 62),
    ("a\x00b\tc\nd\x7f\x9fe\u2029f\udcffg", "a\\x00b\\tc\\nd\\x7f\\x9fe\\u2029f\\udcffg"),
], ids=["two-byte", "four-byte", "controls"])
def test_stage_error_shows_one_line_of_whole_characters(message, shown):
    """Control characters, line breaks and lone surrogates show escaped, and a
    message past _SHOWN bytes of UTF-8 is cut between characters."""
    assert str(cli.StageError("config", message)) == f"[config] {shown}"


# option -> (valid values, bad values) for the CLI property; "in.{format}" is
# the input written for the run's format, only distmat reads densities, and a
# cut of 9 exceeds every m.
_PROPERTY_VALUES = {
    "input": (("in.{format}",), ("missing.csv", "\U0001F600" * 300)),
    "format": (("csv", "json"), ("xml", "densities")),
    "distance": (cli.DISTANCE_CHOICES, ("foo",)),
    "r": (("1", "3"), ("0", "abc")),
    "linkage": (("complete", "single", "average"), ("ward", "wa\nrd")),
    "cut": (("1", "2", "9"), ("0", "x")),
    "outdir": (("out",), ("in.csv",)),
    "dendrogram": (("dendrogram.json",), ("missing.json",)),
    "groups": (("1", "2"), ("two",)), "per_group": (("1", "3"), ("-1",)),
    "n_min": (("3", "10"), ("x",)), "n_max": (("20", "40"), ("x",)),
    "noise": (("0", "0.05"), ("nan",)), "seed": (("0", "7"), ("x",)),
    "output": (("s.json",), ("missing/s.json",)),
}


def _option_argv(key, bad):
    """The ways a run can give option ``key``: with a bad value, or else with a
    valid one or not at all (which for ``input`` is bad)."""
    flag = f"--{key.replace('_', '-')}"
    if key == "no_plots":
        return [(f"{flag}=yes",)] if bad else [(), (flag,)]
    valid, wrong = _PROPERTY_VALUES[key]
    if bad:
        return [(flag, value) for value in wrong] + [()] * (key == "input")
    return [()] * (key != "input") + [(flag, value) for value in valid]


def _write_property_inputs(d, command, m, seed):
    """``in.csv``, ``in.json`` and ``in.densities``, the input of ``command``
    in each format (for ``cluster`` a matrix, ``in.densities`` in JSON), and
    ``dendrogram.json``, from m leaves of at most 40 values."""
    rng = np.random.default_rng(seed)
    dataset = Dataset(tuple(helpers.directional_ccd(rng, (3, 40), f"s{i}") for i in range(m)))
    densities = [normalize_leaf(seq) for seq in dataset.sequences]
    dm = distance_matrix(densities, dataset.ids, DistanceKind("l1"))
    if command == "cluster":
        for fmt, ext in (("csv", "csv"), ("json", "json"), ("json", "densities")):
            write_matrix(dm, d / f"in.{ext}", fmt)
    else:
        write_dataset(dataset, d / "in.csv", "csv")
        write_dataset(dataset, d / "in.json", "json")
        write_densities(densities, d / "in.densities")
    write_dendrogram(agglomerate(dm), d / "dendrogram.json")


def _expected_files(command, opts):
    """The files README lists for a run of ``command`` with options ``opts`` that succeeds."""
    if command == "synth":
        return {opts["output"]}
    plots = command == "plot" or command == "pipeline" and not opts["no_plots"]
    tree = ["dendrogram.json", "dendrogram.nwk"] + ["clusters.json"] * (opts["cut"] is not None)
    names = {"densify": ["densities.json"], "cluster": tree,
             "plot": ["dendrogram.svg"] * (opts["dendrogram"] is not None)}.get(command, [])
    per_kind = {"distmat": ["matrix.csv", "matrix.json"],
                "pipeline": ["matrix.csv", "matrix.json", *tree, *["dendrogram.svg"] * plots]}
    kinds = [tag.value for tag in DistanceTag] if opts["distance"] == "all" else [opts["distance"]]
    names += [name.replace(".", f"_{kind}.")
              for name in per_kind.get(command, []) for kind in kinds]
    if plots:
        names += ["densities_unrotated.svg", "densities_normalized.svg",
                  "leaves_unrotated.svg", "leaves_rotated.svg"]
    return {f"{opts['outdir']}/{name}" for name in names}


@st.composite
def _cli_runs(draw):
    """A subcommand, how each of its options is given, m and a seed."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    keys = cli._COMMANDS[command][2]
    bad = draw(st.one_of(st.none(), st.sampled_from(keys)))  # at most one bad option
    options = {key: draw(st.sampled_from(_option_argv(key, key == bad))) for key in keys}
    return command, options, draw(st.integers(2, 6)), draw(st.integers(0, 2**16))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(case=_cli_runs())
def test_every_run_keeps_the_exit_code_contract(case, tmp_path_factory):
    """For a subcommand with its options valid or left out, or one of them
    bad, on m <= 6 leaves: exit 0 writes the files README lists, exit 1 writes
    nothing, exit 2 names a computation stage, and stderr holds at most one
    bounded line."""
    command, options, m, seed = case
    opts = {key: default for key, (default, _) in cli._OPTIONS.items()}
    opts.update((key, argv[-1] if len(argv) == 2 else True)
                for key, argv in options.items() if argv)
    argv = [command, *(arg.format(format=opts["format"])
                       for given in options.values() for arg in given)]
    d = tmp_path_factory.mktemp("run")
    _write_property_inputs(d, command, m, seed)
    before = sorted(d.rglob("*"))
    stdout, stderr = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        mp.chdir(d)
        code = main(argv)
    err = stderr.getvalue()
    if code == 0:
        assert err == ""
        written = {p.relative_to(d).as_posix() for p in d.rglob("*") if p.is_file()}
        assert written - {p.relative_to(d).as_posix() for p in before} == \
            _expected_files(command, opts)
        return
    line = re.fullmatch(r"leafclust: error \[([\w-]+)\] ([^\n]*)\n", err)
    assert line and len(line[2]) <= cli._SHOWN + 3, err
    assert len(line[2].encode()) <= cli._SHOWN + 3, err
    if code == 1:
        assert sorted(d.rglob("*")) == before
    else:
        assert code == 2
        assert re.fullmatch(r"normalize|distances-(l1|sup|hellinger|moments)|cluster|cut|plot",
                            line[1])


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("r", ["0", "1001", "99999999999999999999"])
def test_moment_order_out_of_bounds_fails_in_config(r, source, four_leaf_json, tmp_path,
                                                    capsys):
    """An r outside [1, 1,000] fails in config, before any array is built or
    any file written, whether a flag or a config file gives it."""
    out = tmp_path / "out"
    argv = ["pipeline", "--input", str(four_leaf_json), "--format", "json", "--outdir", str(out)]
    if source == "flag":
        argv += ["--r", r]
    else:
        (tmp_path / "run.cfg").write_text(f"r = {r}\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == f"leafclust: error [config] moment order must be >= 1 and <= 1,000, got {r}\n"
    assert len(err.encode()) < 1024
    assert not out.exists()


def test_moment_order_at_its_bound_runs(four_leaf_json, tmp_path):
    out = tmp_path / "out"
    assert run("distmat", "--input", four_leaf_json, "--format", "json",
               "--distance", "moments", "--r", 1000, "--outdir", out) == 0
    assert read_matrix(out / "matrix_moments.json", "json").kind.moment_order == 1000


def test_four_distances_keep_their_inequalities(tmp_path):
    """The four matrices of one run, three from the breakpoint merge and one
    from the moments, keep the inequalities that tie them; a repeated leaf
    gives a pair at L1 = 0."""
    rng = np.random.default_rng(12)
    seqs = [helpers.directional_ccd(rng, (50, 400), f"s{i}") for i in range(8)]
    write_dataset(Dataset((*seqs, CcdSequence("copy", seqs[0].values))),
                  tmp_path / "leaves.json", "json")
    out = tmp_path / "out"
    assert run("distmat", "--input", tmp_path / "leaves.json", "--format", "json",
               "--distance", "all", "--outdir", out) == 0
    l1, sup, hellinger, moments = (read_matrix(out / f"matrix_{kind}.json", "json").entries
                                   for kind in ("l1", "sup", "hellinger", "moments"))
    broken = helpers.distance_inequality_violations(l1, sup, hellinger, moments, 5)
    assert {name: int(mask.sum()) for name, mask in broken.items()} == dict.fromkeys(broken, 0)


_HUGE = int("7" * 4000)
_SHORT_HUGE = "777777777777777777...7777777777777777777"


@pytest.mark.parametrize("left,size,message", [
    (_HUGE, 2, f"merge 0: child id {_SHORT_HUGE} out of range"),
    (0, _HUGE, f"merge 0: size {_SHORT_HUGE}, but its children hold 2"),
], ids=["child-id", "size"])
def test_long_dendrogram_integer_gives_a_short_error(left, size, message, four_leaf_json,
                                                     tmp_path, capsys):
    dend = tmp_path / "dend.json"
    dend.write_text(json.dumps({"labels": ["a", "b", "c"], "merges": [
        {"left": left, "right": 1, "height": 1, "size": size},
        {"left": 3, "right": 2, "height": 2, "size": 3}]}))
    assert main(["plot", "--input", str(four_leaf_json), "--format", "json",
                 "--dendrogram", str(dend), "--outdir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == f"leafclust: error [read-dendrogram] {dend}: bad dendrogram schema: {message}\n"
    assert len(err.encode()) < 1024


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("height", [5e-324, 1e-320, 1.72e308, 1.79e308])
@pytest.mark.parametrize("linkage", ["complete", "single", "average"])
def test_dendrograms_at_extreme_heights_plot(height, linkage, four_leaf_json, tmp_path):
    """A tree whose merges sit at the smallest or largest floats plots: every
    number in the SVG is finite, and the bars still carry the heights verbatim."""
    matrix, out = tmp_path / "m.csv", tmp_path / "out"
    h = repr(height)
    matrix.write_text(f",a,b,c\na,0,{h},{h}\nb,{h},0,{h}\nc,{h},{h},0\n")
    assert run("cluster", "--input", matrix, "--linkage", linkage, "--outdir", out) == 0
    assert run("plot", "--input", four_leaf_json, "--format", "json",
               "--dendrogram", out / "dendrogram.json", "--outdir", out) == 0
    text = (out / "dendrogram.svg").read_text()
    assert not re.search(r"inf|nan", text, re.IGNORECASE)
    numbers = re.findall(r"-?\d+(?:\.\d+)?(?:e[-+]\d+)?", text)
    assert all(math.isfinite(float(t)) for t in numbers)
    group = ET.fromstring(text).find("{http://www.w3.org/2000/svg}g")
    assert [float(bar.get("d").split()[5]) for bar in group] == [height, height]


def test_control_character_ids_keep_every_svg_well_formed(tmp_path):
    """Code points XML 1.0 forbids are drawn as U+FFFD; markup is escaped."""
    data = tmp_path / "ids.json"
    data.write_text(json.dumps({"a\x0cb": [1, 2, 3, 4], "c": [2, 1, 2, 1], 'd"e': [1, 1, 3, 1]}))
    assert run("pipeline", "--input", data, "--format", "json", "--distance", "l1",
               "--outdir", tmp_path / "out") == 0
    svgs = sorted((tmp_path / "out").glob("*.svg"))
    assert len(svgs) == 5
    for svg in svgs:
        ET.parse(svg)  # raises on malformed XML
    labels = {e.text for e in ET.parse(tmp_path / "out" / "dendrogram_l1.svg").iter()
              if e.tag.endswith("text")}
    assert {"a\ufffdb", "c", 'd"e'} <= labels


def test_config_file_not_utf8_names_the_file(four_leaf_json, tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"r = 3\n# \xff\n")
    assert main(["pipeline", "--input", str(four_leaf_json), "--format", "json",
                 "--config", str(config), "--outdir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == f"leafclust: error [config] {config}: {_NOT_UTF8}\n"
    assert not (tmp_path / "out").exists()


# The environment of a run in each mode: Python's UTF-8 mode, or the C locale,
# whose encoding is ASCII, with UTF-8 mode off.
_LOCALES = {"utf8": {"PYTHONUTF8": "1"}, "c": {"LC_ALL": "C", "PYTHONUTF8": "0"}}


def _run_cli_in(mode, cwd, *argv):
    """Run the CLI as a fresh process in locale mode ``mode``; its stderr if it fails."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, **_LOCALES[mode])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-m", "leafclust.cli", *argv], cwd=cwd, env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    return done.returncode, done.stderr.decode(errors="replace")


def test_every_file_is_utf8_whatever_the_locale(tmp_path):
    """Non-ASCII ids, group names and a config comment read and write under
    the C locale, and every artifact equals the UTF-8 mode run's byte for byte.
    Non-ASCII paths in a config file name the same files as the same paths as flags."""
    rng = np.random.default_rng(29)
    ids = ["葉.1", "葉.2", "feuille-é", "hoja-ñ"]
    doc = {i: helpers.directional_ccd(rng, (30, 60), i).values.tolist() for i in ids}
    doc["groups"] = dict(zip(ids, ["広葉", "広葉", "érable", "érable"]))
    for name in ("leaves.json", "葉.json"):
        (tmp_path / name).write_bytes(json.dumps(doc, ensure_ascii=False).encode())
    (tmp_path / "run.cfg").write_bytes("# réglages du 葉\nlinkage = average\ncut = 2\n".encode())
    for mode in _LOCALES:
        cfg = f"input = 葉.json\noutdir = {mode}/葉out\n"
        (tmp_path / f"{mode}.cfg").write_bytes(cfg.encode())
    runs = ("pipeline --input leaves.json --format json --distance all --cut 2 --outdir {}/all",
            "densify --input leaves.json --format json --outdir {}/staged",
            "distmat --input {}/staged/densities.json --format densities --outdir {}/staged",
            "cluster --input {}/staged/matrix_l1.csv --format csv --config run.cfg"
            " --outdir {}/staged",
            "densify --format json --config {}.cfg")
    for mode in _LOCALES:
        for line in runs:
            argv = line.replace("{}", mode).split()
            assert _run_cli_in(mode, tmp_path, *argv) == (0, ""), (mode, argv)
        assert ((tmp_path / mode / "葉out" / "densities.json").read_bytes()
                == (tmp_path / mode / "staged" / "densities.json").read_bytes())
    files = sorted(p.relative_to(tmp_path / "utf8")
                   for p in (tmp_path / "utf8").rglob("*") if p.is_file())
    assert len(files) == 28 + 12 + 1
    assert files == sorted(p.relative_to(tmp_path / "c")
                           for p in (tmp_path / "c").rglob("*") if p.is_file())
    for name in files:
        assert (tmp_path / "c" / name).read_bytes() == (tmp_path / "utf8" / name).read_bytes()
    assert "葉.1,0,".encode() in (tmp_path / "c" / "all" / "matrix_l1.csv").read_bytes()
    assert "érable".encode() in (tmp_path / "c" / "all" / "densities_normalized.svg").read_bytes()
    # The C locale's own encoding cannot hold these ids: the test shows the boundary at work.
    encoding = subprocess.run(
        [sys.executable, "-c", "import locale; print(locale.getpreferredencoding(False))"],
        env=dict(os.environ, **_LOCALES["c"]), capture_output=True, text=True).stdout.strip()
    assert codecs.lookup(encoding).name != "utf-8"


def test_one_leaf_densifies_and_plots(tmp_path):
    _write_one_leaf_inputs(tmp_path)
    out = tmp_path / "out"
    assert run("densify", "--input", tmp_path / "one.csv", "--outdir", out) == 0
    assert run("plot", "--input", tmp_path / "one.csv", "--outdir", out) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "densities.json", "densities_normalized.svg", "densities_unrotated.svg",
        "leaves_rotated.svg", "leaves_unrotated.svg"]


class TestStagewiseCommands:
    def test_densify_then_distmat_then_cluster_then_plot(self, four_leaf_json, tmp_path):
        out = tmp_path / "out"
        assert run("densify", "--input", four_leaf_json, "--format", "json",
                   "--outdir", out) == 0
        dens = out / "densities.json"
        assert dens.exists()
        assert run("distmat", "--input", dens, "--format", "densities",
                   "--distance", "moments", "--r", 3, "--outdir", out) == 0
        matrix = out / "matrix_moments.csv"
        assert matrix.exists()
        assert run("cluster", "--input", matrix, "--format", "csv",
                   "--linkage", "average", "--cut", 2, "--outdir", out) == 0
        assert (out / "dendrogram.json").exists()
        assert (out / "dendrogram.nwk").exists()
        assert (out / "clusters.json").exists()
        assert run("plot", "--input", four_leaf_json, "--format", "json",
                   "--dendrogram", out / "dendrogram.json", "--outdir", out) == 0
        assert (out / "dendrogram.svg").exists()

    def test_stagewise_matrix_matches_pipeline(self, four_leaf_json, tmp_path):
        direct = tmp_path / "direct"
        staged = tmp_path / "staged"
        assert run("pipeline", "--input", four_leaf_json, "--format", "json",
                   "--distance", "l1", "--outdir", direct, "--no-plots") == 0
        assert run("distmat", "--input", four_leaf_json, "--format", "json",
                   "--distance", "l1", "--outdir", staged) == 0
        assert (direct / "matrix_l1.csv").read_bytes() == \
            (staged / "matrix_l1.csv").read_bytes()

    def test_stagewise_tree_matches_pipeline(self, four_leaf_json, tmp_path):
        direct = tmp_path / "direct"
        staged = tmp_path / "staged"
        options = ("--cut", 2, "--linkage", "average")
        assert run("pipeline", "--input", four_leaf_json, "--format", "json",
                   "--distance", "l1", *options, "--outdir", direct, "--no-plots") == 0
        assert run("cluster", "--input", direct / "matrix_l1.csv", *options,
                   "--outdir", staged) == 0
        for name in ("dendrogram.json", "dendrogram.nwk", "clusters.json"):
            stem, ext = name.split(".")
            assert (staged / name).read_bytes() == (direct / f"{stem}_l1.{ext}").read_bytes()


class TestConfigFile:
    def test_config_supplies_defaults(self, four_leaf_json, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "out"
        cfg.write_text(
            f"input = {four_leaf_json}\nformat = json\ndistance = sup\n"
            f"outdir = {out}\nno_plots = true\n# comment line\n"
        )
        assert run("pipeline", "--config", cfg) == 0
        assert (out / "matrix_sup.csv").exists()
        assert not (out / "matrix_l1.csv").exists()

    def test_flags_override_config(self, four_leaf_json, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "out"
        cfg.write_text(
            f"input = {four_leaf_json}\nformat = json\ndistance = sup\n"
            f"outdir = {out}\nno_plots = true\n"
        )
        assert run("pipeline", "--config", cfg, "--distance", "hellinger") == 0
        assert (out / "matrix_hellinger.csv").exists()
        assert not (out / "matrix_sup.csv").exists()

    def test_malformed_config_is_input_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        assert run("pipeline", "--config", cfg) == 1

    def test_bad_value_names_the_key_and_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# run\nlinkage = ward\n")
        assert run("cluster", "--config", cfg) == 1
        assert f"[config] {cfg}:2: linkage: invalid choice 'ward'" in capsys.readouterr().err

    def test_unknown_key_names_the_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("linkage = single\nlinkge = single\n")
        assert run("cluster", "--config", cfg) == 1
        assert f"[config] {cfg}:2: unknown option 'linkge'" in capsys.readouterr().err

    def test_options_of_other_subcommands_are_accepted(self, four_leaf_json, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "out"
        cfg.write_text(f"seed = 3\noutput = s.json\ndendrogram = d.json\noutdir = {out}\n")
        assert run("densify", "--input", four_leaf_json, "--format", "json",
                   "--config", cfg) == 0
        assert (out / "densities.json").exists()

    @pytest.mark.parametrize("key", sorted(set(cli._OPTIONS) - {"config"}))
    def test_flag_beats_config_file_beats_default(self, key, tmp_path):
        """Each option resolves through the maps flags, config file and defaults,
        in that order; ``config`` itself is the flag naming the file."""
        assert set(_LAYER_VALUES) == set(cli._OPTIONS) - {"config"}
        parser = cli.build_parser()
        flag = f"--{key.replace('_', '-')}"
        command, keys = next((name, keys) for name, (_, _, keys) in cli._COMMANDS.items()
                             if key in keys)
        needs_input = key != "input" and "input" in keys
        base = [command, *(["--input", "x.json"] if needs_input else [])]
        flag_text, file_text = _LAYER_VALUES[key]
        flag_value = True if flag_text is None else cli._config_value(key, flag_text)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {file_text}\n")
        file_value, default = cli._config_value(key, file_text), cli._OPTIONS[key][0]
        assert len({repr(flag_value), repr(file_value), repr(default)}) == 3
        flag_args = [flag] if flag_text is None else [flag, flag_text]
        for argv, want, layer in ((base + flag_args + ["--config", str(cfg)], flag_value, 0),
                                  (base + ["--config", str(cfg)], file_value, 1),
                                  (base, default, 2)):
            if want is None and key == "input":
                with pytest.raises(ValueError, match="missing required option --input"):
                    cli.Options(parser.parse_args(argv))
                continue
            opts = cli.Options(parser.parse_args(argv))
            assert opts.get(key) == want and type(opts.get(key)) is type(want)
            assert [key in m for m in opts.maps].index(True) == layer
            assert opts.get("config") == (str(cfg) if layer < 2 else None)

    @settings(max_examples=300, derandomize=True, database=None)
    @given(key=st.sampled_from(sorted(k for k, (_, spec) in cli._OPTIONS.items()
                                      if "type" in spec or "choices" in spec)),
           text=st.one_of(st.text(), st.from_regex(r"-?[0-9]{1,3}(\.[0-9])?", fullmatch=True),
                          st.sampled_from(cli.DISTANCE_CHOICES + ("average", "json"))))
    def test_values_are_checked_as_their_flags_are(self, key, text):
        parser = argparse.ArgumentParser(exit_on_error=False)
        parser.add_argument("--value", **cli._OPTIONS[key][1])
        try:
            flag = parser.parse_args([f"--value={text}"]).value
        except (argparse.ArgumentError, SystemExit):
            flag = None
        try:
            value = cli._config_value(key, text)
        except ValueError:
            value = None
        assert repr(value) == repr(flag)


# option -> (flag value, config-file value), each different from the default;
# None stands for a flag that takes no value.
_LAYER_VALUES = {
    "input": ("flag.json", "file.json"), "format": ("json", "densities"),
    "distance": ("sup", "moments"), "r": ("3", "4"), "linkage": ("single", "average"),
    "cut": ("2", "3"), "outdir": ("flag_out", "file_out"),
    "dendrogram": ("flag.json", "file.json"), "no_plots": (None, "false"),
    "seed": ("1", "2"), "groups": ("2", "3"), "per_group": ("6", "7"), "n_min": ("10", "20"),
    "n_max": ("30", "40"), "noise": ("0.5", "0.25"), "output": ("flag.json", "file.json"),
}


class TestSyntheticRecovery:
    def test_small_synthetic_recovery_with_cut(self, tmp_path):
        data = tmp_path / "synthetic.json"
        out = tmp_path / "out"
        assert run("synth", "--groups", 3, "--per-group", 4, "--n-min", 100,
                   "--n-max", 400, "--noise", 0.02, "--seed", 7,
                   "--output", data) == 0
        assert run("pipeline", "--input", data, "--format", "json",
                   "--distance", "l1", "--cut", 3, "--outdir", out,
                   "--no-plots") == 0
        ds = read_dataset(data, "json")
        doc = json.loads((out / "clusters_l1.json").read_text())
        truth = [ds.groups[i] for i in ds.ids]
        got = [doc["assignment"][i] for i in ds.ids]
        assert helpers.adjusted_rand_index(truth, got) >= 0.9
