import argparse
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from leafclust import Dataset, InvalidCcdError, read_dataset, write_dataset
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


def _fail(*args, **kwargs):
    raise InvalidCcdError("injected failure")


def _case(stage, code, argv, broken=None, name=None, config=None):
    """One CLI run that must fail in ``stage`` with exit ``code``.

    ``argv`` has {d} for the data directory; ``broken`` names a function the
    CLI calls that is replaced by one raising InvalidCcdError; ``config`` is
    the text of {d}/run.cfg.
    """
    return pytest.param(stage, code, argv, broken, config, id=name or stage)


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
    _case("read-dataset", 1, "pipeline --input {d}/nope.csv --outdir {d}/out"),
    _case("read-densities", 1,
          "distmat --input {d}/four.json --format densities --outdir {d}/out"),
    _case("read-matrix", 1, "cluster --input {d}/nope.csv --outdir {d}/out"),
    _case("read-dendrogram", 1,
          "plot --input {d}/four.json --format json --dendrogram {d}/nope.json --outdir {d}/out"),
    _case("synth", 1, "synth --n-min 50 --n-max 10 --output {d}/s.json"),
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
]


@pytest.mark.parametrize("stage,code,argv,broken,config", EXIT_CODES)
def test_stage_failures_map_to_exit_codes(stage, code, argv, broken, config, four_leaf_json,
                                          monkeypatch, capsys):
    d = four_leaf_json.parent
    if broken is not None:
        monkeypatch.setattr(cli, broken, _fail)
    if config is not None:
        (d / "run.cfg").write_text(config + "\n")
    before = sorted(d.rglob("*"))
    assert main(argv.format(d=d).split()) == code
    assert f"leafclust: error [{stage}] " in capsys.readouterr().err
    if stage in ("config", "write"):
        assert sorted(d.rglob("*")) == before


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
