import ast
import json
import re
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from leafclust import (
    TWO_PI,
    CcdSequence,
    DataFormatError,
    Dataset,
    Dendrogram,
    DistanceKind,
    DistanceMatrix,
    Linkage,
    Merge,
    StepDensity,
    agglomerate,
    density_from_ccd,
    distance_matrix,
    normalize_leaf,
    read_dataset,
    read_dendrogram,
    read_densities,
    read_matrix,
    write_dataset,
    write_dendrogram,
    write_densities,
    write_matrix,
)
from leafclust import dataio
from leafclust.hcluster import _format_length


def random_dataset(rng, m=6):
    seqs = tuple(helpers.random_ccd(rng, n_range=(2, 40), seq_id=f"leaf{i}")
                 for i in range(m))
    groups = {f"leaf{i}": f"G{i % 2}" for i in range(m)}
    return Dataset(seqs, groups)


class TestDatasetCsv:
    def test_small_example(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,value\na,1\na,1\nb,2\nb,2\n")
        ds = read_dataset(path, "csv")
        assert ds.ids == ["a", "b"]
        assert all(len(s) == 2 for s in ds.sequences)

    def test_round_trip_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(30)
        ds = random_dataset(rng)
        path = tmp_path / "d.csv"
        write_dataset(ds, path, "csv")
        back = read_dataset(path, "csv")
        assert back.ids == ds.ids
        for a, b in zip(ds.sequences, back.sequences):
            np.testing.assert_array_equal(a.values, b.values)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("leaf,dist\na,1\n")
        with pytest.raises(DataFormatError, match="header"):
            read_dataset(path, "csv")

    def test_negative_value_reports_id_and_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,value\na,1\na,-3\n")
        with pytest.raises(DataFormatError, match=r"row 3.*'a'"):
            read_dataset(path, "csv")

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,value\na,1\na,wat\n")
        with pytest.raises(DataFormatError, match="bad number"):
            read_dataset(path, "csv")

    def test_short_sequence(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,value\na,1\nb,1\nb,2\n")
        with pytest.raises(DataFormatError, match="fewer than 2"):
            read_dataset(path, "csv")

    def test_non_contiguous_id(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("id,value\na,1\na,2\nb,1\nb,2\na,3\n")
        with pytest.raises(DataFormatError, match="contiguous"):
            read_dataset(path, "csv")


_IDS = st.sampled_from(["a", "b", "c", "leaf 1", " a", "", "a,b", 'say "hi"', "x\ny",
                        "x\r\ny", "\r", "葉", "a\x00", "\x00", "\x0c"]) | st.text(max_size=4)
_NUMBERS = st.sampled_from([
    "0", "1", "+2", "-0", "-0.0", "1.", ".5", "007", "5e-324", "2.5E-310",
    "1.7976931348623157e308",
]) | st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).flatmap(
    lambda x: st.sampled_from([repr(x), format(x, ".17g"), format(x, ".3e")]))
_NON_FINITE = st.sampled_from(["inf", "nan", "-nan", "Infinity", "1e400"])
_BAD_NUMBERS = st.sampled_from([
    "", " ", "wat", "1_5", "1_000.5", "١٢", "٣.5", "１", "0x10", "1e", "--1", "1 2",
    "nan(1)", "1\x00", "1,5", '1"', "-1", "-5e-324", "-inf", "-1e-300",
])
_PADDING = st.sampled_from(["", "", "", " ", "\t", "\u2003", "\xa0", "\x0b", "\x0c", "  \t"])
_ENDINGS = st.sampled_from(["\n", "\n", "\r\n", "\r"])


def _padded(numbers):
    return st.tuples(_PADDING, numbers, _PADDING).map("".join)


@st.composite
def _fields(draw, texts):
    """A CSV field, quoted when it must be or when drawn so."""
    text = draw(texts)
    if any(c in text for c in ',"\r\n') or draw(st.integers(0, 3)) == 0:
        return '"' + text.replace('"', '""') + '"'
    return text


_ODD_IDS = st.sampled_from(['a"b', '"a"b', '"a" ', ' "a"', '"a', 'a""'])
_ANY_VALUES = _fields(_padded(_NUMBERS | _NON_FINITE | _BAD_NUMBERS))
_RECORDS = st.one_of(
    st.just([]),  # a blank line
    st.tuples(_fields(_IDS) | _ODD_IDS, _ANY_VALUES).map(list),
    st.tuples(_fields(_IDS), _fields(_padded(_NUMBERS)), _fields(_padded(_NUMBERS))).map(list),
    st.tuples(_fields(_IDS)).map(list),
)


@st.composite
def _csv_texts(draw):
    """Long-CSV texts: runs of ids, and sometimes a header or record out of place."""
    header = draw(st.sampled_from(
        ["id,value"] * 20 + ["id , value", '"id","value"', '"id\n",value', "id,value,x",
                            "leaf,dist", ""]))
    records = []
    for seq_id in draw(st.lists(_IDS, unique=True, max_size=4)):
        for value in draw(st.lists(_fields(_padded(_NUMBERS)), min_size=2, max_size=5)):
            records.append([draw(_fields(st.just(seq_id))), value])
    if draw(st.booleans()):
        for _ in range(draw(st.integers(1, 2))):
            records.insert(draw(st.integers(0, len(records))), draw(_RECORDS))
    endings = [draw(_ENDINGS) for _ in range(len(records) + 1)]
    body = "".join(",".join(r) + e for r, e in zip(records, endings[1:]))
    return header + endings[0] + body if header or body else ""


def _outcome(read, path):
    try:
        dataset = read(path)
    except DataFormatError as exc:
        return str(exc)
    return [(s.id, s.values.tobytes()) for s in dataset.sequences]


def _numpy_number(raw):
    """``float`` minus the two spellings numpy's parser rejects."""
    if "_" in raw or any(c.isdecimal() and not c.isascii() for c in raw):
        raise ValueError(raw)
    return float(raw)


class TestDatasetCsvAgainstRowReader:
    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(_csv_texts(), st.sampled_from([dataio._CSV_CHUNK, 1, 2, 3]))
    def test_equals_row_by_row_reader(self, tmp_path_factory, text, chunk):
        path = tmp_path_factory.mktemp("csv") / "d.csv"
        path.write_text(text, newline="")
        with warnings.catch_warnings(), mock.patch.object(dataio, "_CSV_CHUNK", chunk):
            warnings.simplefilter("error")
            got = _outcome(read_dataset, path)
        assert got == _outcome(lambda p: helpers.read_dataset_csv_rows(p, _numpy_number), path)

    @pytest.mark.parametrize("raw", ["1_5", "١٢", "2_0.5e1"])
    def test_underscores_and_non_ascii_digits_are_bad_numbers(self, tmp_path, raw):
        path = tmp_path / "d.csv"
        path.write_text(f"id,value\na,1\na,{raw}\na,3\n")
        assert helpers.read_dataset_csv_rows(path).sequences[0].values.size == 3
        with pytest.raises(DataFormatError, match=rf"row 3: bad number '{raw}' for id 'a'"):
            read_dataset(path, "csv")

    def test_header_only_is_empty_without_warning(self, tmp_path):
        path = tmp_path / "d.csv"
        for text in ("id,value\n", "id,value\n\n\r\n"):
            path.write_text(text, newline="")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DataFormatError, match="dataset is empty"):
                    read_dataset(path, "csv")

    def test_large_round_trip(self, tmp_path):
        rng = np.random.default_rng(35)
        seqs = []
        for i, n in enumerate((4000, 3000, 50_001, 7)):
            values = rng.uniform(0.0, 10.0, n) * 10.0 ** rng.integers(-300, 300, n)
            values[rng.integers(0, n, n // 10)] = 0.0
            seqs.append(CcdSequence(f"leaf,{i} \"{i}\"", values))
        ds = Dataset(tuple(seqs))
        path = tmp_path / "d.csv"
        write_dataset(ds, path, "csv")
        back = read_dataset(path, "csv")
        assert back.ids == ds.ids
        for a, b in zip(ds.sequences, back.sequences):
            assert a.values.tobytes() == b.values.tobytes()


class TestDatasetJson:
    def test_small_example(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"a": [1, 1, 1, 1]}')
        ds = read_dataset(path, "json")
        assert ds.ids == ["a"]
        assert ds.groups is None

    def test_round_trip_with_groups(self, tmp_path):
        rng = np.random.default_rng(31)
        ds = random_dataset(rng)
        path = tmp_path / "d.json"
        write_dataset(ds, path, "json")
        back = read_dataset(path, "json")
        assert back.ids == ds.ids
        assert back.groups == ds.groups
        for a, b in zip(ds.sequences, back.sequences):
            np.testing.assert_array_equal(a.values, b.values)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text("{nope")
        with pytest.raises(DataFormatError, match="invalid JSON"):
            read_dataset(path, "json")

    def test_negative_value_reports_position(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"a": [1, 2, -1]}')
        with pytest.raises(DataFormatError, match="position 2"):
            read_dataset(path, "json")

    def test_short_sequence(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"a": [1], "b": [1, 2]}')
        with pytest.raises(DataFormatError, match="'a': fewer than 2"):
            read_dataset(path, "json")

    def test_non_numeric_value(self, tmp_path):
        path = tmp_path / "d.json"
        path.write_text('{"a": [1, "wat"]}')
        with pytest.raises(DataFormatError, match="d.json"):
            read_dataset(path, "json")

    def test_reserved_groups_id_rejected_on_write(self, tmp_path):
        ds = Dataset((CcdSequence("groups", np.array([1.0, 2.0])),))
        with pytest.raises(DataFormatError, match="reserved"):
            write_dataset(ds, tmp_path / "d.json", "json")


class TestMatrixIo:
    def make_matrix(self):
        return DistanceMatrix(
            ("a", "b,c"),
            np.array([[0.0, 0.1 + 0.2], [0.1 + 0.2, 0.0]]),
            DistanceKind("moments", 3),
        )

    def test_csv_round_trip_exact(self, tmp_path):
        dm = self.make_matrix()
        path = tmp_path / "m.csv"
        write_matrix(dm, path, "csv")
        back = read_matrix(path, "csv", kind=dm.kind)
        assert back.labels == dm.labels
        np.testing.assert_array_equal(back.entries, dm.entries)

    def test_comma_label_is_quoted(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix(self.make_matrix(), path, "csv")
        assert '"b,c"' in path.read_text()

    def test_json_round_trip_keeps_kind(self, tmp_path):
        dm = self.make_matrix()
        path = tmp_path / "m.json"
        write_matrix(dm, path, "json")
        back = read_matrix(path, "json")
        assert back.kind == dm.kind
        np.testing.assert_array_equal(back.entries, dm.entries)

    def test_csv_numbers_are_shortest_repr(self, tmp_path):
        """CSV cells are written by the formatter of Newick and SVG numbers,
        where 17 significant digits would differ, and read back bit-equal."""
        values = [0.1, 5e-05, 1e-300, 5e-324, 1.0]
        entries = np.zeros((6, 6))
        entries[0, 1:] = entries[1:, 0] = values
        dm = DistanceMatrix(tuple("abcdef"), entries, DistanceKind("l1"))
        path = tmp_path / "m.csv"
        write_matrix(dm, path, "csv")
        assert path.read_text().splitlines()[1] == ",".join(
            ["a", "0"] + [_format_length(v) for v in values])
        assert _bits(read_matrix(path, "csv").entries) == _bits(entries)

    @pytest.mark.parametrize("cell", ["1_5", "١٢"])
    def test_csv_cells_follow_the_dataset_number_rule(self, tmp_path, cell):
        path = tmp_path / "m.csv"
        path.write_text(f",a,b\na,0,{cell}\nb,{cell},0\n", encoding="utf-8")
        with pytest.raises(DataFormatError) as err:
            read_matrix(path, "csv")
        assert str(err.value) == f"{path}: row 2: could not convert string to float: {cell!r}"

    def test_zero_matrix_csv(self, tmp_path):
        dm = DistanceMatrix(("a", "b"), np.zeros((2, 2)), DistanceKind("l1"))
        path = tmp_path / "m.csv"
        write_matrix(dm, path, "csv")
        assert path.read_text() == ",a,b\na,0,0\nb,0,0\n"

    def test_malformed_matrix_csv(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(DataFormatError):
            read_matrix(path, "csv")


class TestDendrogramIo:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(32)
        ds = random_dataset(rng)
        densities = [normalize_leaf(s) for s in ds.sequences]
        dm = distance_matrix(densities, ds.ids, DistanceKind("l1"))
        dend = agglomerate(dm, Linkage.COMPLETE)
        path = tmp_path / "t.json"
        write_dendrogram(dend, path)
        back = read_dendrogram(path)
        assert back.labels == dend.labels
        assert back.merges == dend.merges

    def test_bad_schema(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text('{"labels": ["a", "b"]}')
        with pytest.raises(DataFormatError, match="schema"):
            read_dendrogram(path)

    @pytest.mark.parametrize("key,value", [("left", "0.9"), ("right", "true"), ("size", "2.0")])
    def test_child_ids_and_sizes_are_json_integers(self, tmp_path, key, value):
        merge = {"left": 0, "right": 1, "height": 1.0, "size": 2}
        text = json.dumps({"labels": ["a", "b"], "merges": [merge]})
        path = tmp_path / "t.json"
        path.write_text(text.replace(f'"{key}": {merge[key]}', f'"{key}": {value}'))
        with pytest.raises(DataFormatError, match=f"schema: '{key}' must be an integer"):
            read_dendrogram(path)


class TestDensitiesIo:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(33)
        ds = random_dataset(rng)
        densities = [normalize_leaf(s) for s in ds.sequences]
        path = tmp_path / "dens.json"
        write_densities(densities, path)
        back = read_densities(path)
        assert len(back) == len(densities)
        for a, b in zip(densities, back):
            assert a.source_id == b.source_id
            assert a.rotation == b.rotation
            assert a.direction_defined == b.direction_defined
            np.testing.assert_array_equal(a.breakpoints, b.breakpoints)
            np.testing.assert_array_equal(a.heights, b.heights)

    def test_duplicate_ids_rejected(self, tmp_path):
        d = density_from_ccd(CcdSequence("x", np.array([1.0, 2.0])))
        with pytest.raises(DataFormatError, match="duplicate"):
            write_densities([d, d], tmp_path / "dens.json")


class TestDeterminism:
    def test_writers_are_byte_stable(self, tmp_path):
        rng = np.random.default_rng(34)
        ds = random_dataset(rng)
        densities = [normalize_leaf(s) for s in ds.sequences]
        dm = distance_matrix(densities, ds.ids, DistanceKind("l1"))
        dend = agglomerate(dm, Linkage.COMPLETE)
        for name, writer in [
            ("a.csv", lambda p: write_dataset(ds, p, "csv")),
            ("a.json", lambda p: write_dataset(ds, p, "json")),
            ("m.csv", lambda p: write_matrix(dm, p, "csv")),
            ("m.json", lambda p: write_matrix(dm, p, "json")),
            ("t.json", lambda p: write_dendrogram(dend, p)),
            ("d.json", lambda p: write_densities(densities, p)),
        ]:
            p1, p2 = tmp_path / ("one_" + name), tmp_path / ("two_" + name)
            writer(p1)
            writer(p2)
            assert p1.read_bytes() == p2.read_bytes(), name


_AWKWARD_IDS = ("a, b", 'say "hi"', "葉", "line\nbreak")
_EXTREMES = (5e-324, 1e308, 0.0)


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _dataset_round_trip(path):
    ds = Dataset(tuple(CcdSequence(i, _EXTREMES) for i in _AWKWARD_IDS),
                 {i: "葉, G" for i in _AWKWARD_IDS})
    write_dataset(ds, path, "json")
    back = read_dataset(path, "json")
    assert back.ids == ds.ids and back.groups == ds.groups
    assert [_bits(s.values) for s in back.sequences] == [_bits(s.values) for s in ds.sequences]


def _matrix_round_trip(path):
    a, b, z = _EXTREMES
    entries = np.array([[z, a, b, z], [a, z, z, b], [b, z, z, a], [z, b, a, z]])
    dm = DistanceMatrix(_AWKWARD_IDS, entries, DistanceKind("moments", 3))
    write_matrix(dm, path, "json")
    back = read_matrix(path, "json")
    assert (back.labels, back.kind) == (dm.labels, dm.kind)
    assert _bits(back.entries) == _bits(dm.entries)


def _dendrogram_round_trip(path):
    a, b, z = _EXTREMES
    dend = Dendrogram(_AWKWARD_IDS, (Merge(0, 1, z, 2), Merge(2, 3, a, 2), Merge(4, 5, b, 4)))
    write_dendrogram(dend, path)
    back = read_dendrogram(path)
    assert back.labels == dend.labels
    assert [_bits([m.height]) for m in back.merges] == [_bits([m.height]) for m in dend.merges]
    assert back.merges == dend.merges


def _clusters_round_trip(path):
    assignment = [1, 2, 1, 2]
    dataio.write_clusters(_AWKWARD_IDS, assignment, 2, path)
    assert json.loads(path.read_text()) == {"k": 2,
                                            "assignment": dict(zip(_AWKWARD_IDS, assignment))}


def _densities_round_trip(path):
    densities = [StepDensity(np.array([0.0, _EXTREMES[0], TWO_PI]), np.array([0.0, 1 / TWO_PI]),
                             source_id=i, rotation=r, direction_defined=r != 0.0)
                 for i, r in zip(_AWKWARD_IDS, _EXTREMES + (-1.5,))]
    write_densities(densities, path)
    back = read_densities(path)
    assert [d.source_id for d in back] == list(_AWKWARD_IDS)
    for a, b in zip(densities, back):
        assert _bits([b.rotation]) == _bits([a.rotation])
        assert b.direction_defined == a.direction_defined
        assert _bits(b.breakpoints) == _bits(a.breakpoints)
        assert _bits(b.heights) == _bits(a.heights)


@pytest.mark.parametrize("round_trip", [_dataset_round_trip, _matrix_round_trip,
                                        _dendrogram_round_trip, _clusters_round_trip,
                                        _densities_round_trip],
                         ids=["dataset", "matrix", "dendrogram", "clusters", "densities"])
def test_json_artifact_is_one_compact_line(round_trip, tmp_path):
    """Each JSON writer writes one line, exactly the compact re-encoding of
    what it holds, that reads back bit-equal (awkward ids, extreme floats)."""
    path = tmp_path / "a.json"
    round_trip(path)
    text = path.read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    assert text == json.dumps(json.loads(text), separators=(",", ":")) + "\n"


def _write_small_tree(path):
    write_dendrogram(Dendrogram(("a", "b", "c"), (Merge(0, 1, 0.0216, 2), Merge(2, 3, 0.5, 3))),
                     path)


def _write_one_density(path):
    write_densities([normalize_leaf(CcdSequence("a", [1.0, 2.0, 4.0]))], path)


def _write_small_matrix(path):
    write_matrix(DistanceMatrix(("a", "b"), np.array([[0.0, 0.5], [0.5, 0.0]]),
                                DistanceKind("moments", 3)), path, "json")


def _write_one_trace(path):
    write_dataset(Dataset((CcdSequence("a", [1.0, 2.0, 4.0]),)), path, "json")


def _read_matrix_json(path):
    return read_matrix(path, "json")


def _read_dataset_json(path):
    return read_dataset(path, "json")


def _density(doc):
    return doc["densities"]["a"]


# id -> (writer, reader, edit of the written document, what the error says)
_MISTYPED_JSON = {
    "dendrogram-height-string": (_write_small_tree, read_dendrogram,
                                 lambda d: d["merges"][0].update(height="0.0216"),
                                 "'height' must be a number"),
    "dendrogram-height-beyond-float": (_write_small_tree, read_dendrogram,
                                       lambda d: d["merges"][1].update(height=10**400),
                                       "int too large to convert to float"),
    "dendrogram-labels-string": (_write_small_tree, read_dendrogram,
                                 lambda d: d.update(labels="一丁丂"),
                                 "'labels' must be a list of strings"),
    "densities-flag-string": (_write_one_density, read_densities,
                              lambda d: _density(d).update(direction_defined="no"),
                              "'direction_defined' must be true or false"),
    "densities-rotation-string": (_write_one_density, read_densities,
                                  lambda d: _density(d).update(rotation="0.5"),
                                  "'rotation' must be a number"),
    "densities-rotation-beyond-float": (_write_one_density, read_densities,
                                        lambda d: _density(d).update(rotation=10**400),
                                        "int too large to convert to float"),
    "densities-breakpoint-strings": (_write_one_density, read_densities,
                                     lambda d: _density(d).update(
                                         breakpoints=list(map(str, _density(d)["breakpoints"]))),
                                     "'breakpoints' must be an array of numbers"),
    "matrix-labels-string": (_write_small_matrix, _read_matrix_json,
                             lambda d: d.update(labels="ab"),
                             "'labels' must be a list of strings"),
    "matrix-moment-order-float": (_write_small_matrix, _read_matrix_json,
                                  lambda d: d["kind"].update(moment_order=5.5),
                                  "'moment_order' must be an integer"),
    "matrix-entry-strings": (_write_small_matrix, _read_matrix_json,
                             lambda d: d.update(entries=[list(map(str, r)) for r in d["entries"]]),
                             "'entries' must be an array of numbers"),
    "matrix-moment-order-zero": (_write_small_matrix, _read_matrix_json,
                                 lambda d: d["kind"].update(moment_order=0),
                                 "moment order must be >= 1"),
    "matrix-moment-order-beyond-bound": (_write_small_matrix, _read_matrix_json,
                                         lambda d: d["kind"].update(moment_order=1001),
                                         "moment order must be >= 1 and <= 1,000, got 1001"),
    "dataset-value-strings": (_write_one_trace, _read_dataset_json,
                              lambda d: d.update(a=["1", "2", "4"]),
                              "'a' must be an array of numbers"),
    "dataset-group-not-string": (_write_one_trace, _read_dataset_json,
                                 lambda d: d.update(groups={"a": 1}),
                                 "'groups' must be an object of strings"),
}


@pytest.mark.parametrize("case", _MISTYPED_JSON)
def test_json_fields_are_checked_not_coerced(case, tmp_path):
    """A JSON field of the wrong type is a format error naming the file and
    the field, where float(), bool() or tuple() would have read it; an integer
    beyond the float range is a format error of the file."""
    write, read, edit, message = _MISTYPED_JSON[case]
    path = tmp_path / "a.json"
    write(path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match=re.escape(f"{path}: ") + ".*" + re.escape(message)):
        read(path)


# reader -> (what it says of the document [1, 2], what it says of {})
_JSON_SHAPES = {
    "dataset": (_read_dataset_json, "expected a JSON object", "no sequences found"),
    "matrix": (_read_matrix_json,
               "bad matrix schema: list indices must be integers or slices, not str",
               "bad matrix schema: 'kind'"),
    "dendrogram": (read_dendrogram,
                   "bad dendrogram schema: list indices must be integers or slices, not str",
                   "bad dendrogram schema: 'merges'"),
    "densities": (read_densities,
                  "bad densities schema: list indices must be integers or slices, not str",
                  "bad densities schema: 'densities'"),
}


@pytest.mark.parametrize("case", _JSON_SHAPES)
def test_json_document_of_the_wrong_shape(case, tmp_path):
    """Every JSON reader fails on a document that is not its object, or an
    object without its first field, with a format error naming the file."""
    read, of_list, of_empty = _JSON_SHAPES[case]
    path = tmp_path / "a.json"
    for text, message in (("[1, 2]", of_list), ("{}", of_empty)):
        path.write_text(text)
        with pytest.raises(DataFormatError) as err:
            read(path)
        assert str(err.value) == f"{path}: {message}"


# Calls that open a file, or read or write one whole (as Path methods do).
_FILE_CALLS = {"open", "read_text", "write_text", "read_bytes", "write_bytes"}


def _file_calls(path):
    """(innermost function, source) of each call in ``path`` named in _FILE_CALLS."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                func = child.func
                if getattr(func, "id", getattr(func, "attr", None)) in _FILE_CALLS:
                    found.append((where, ast.unparse(child)))
            visit(child, child.name if isinstance(child, ast.FunctionDef) else where)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_every_file_crosses_the_dataio_boundary():
    """Only open_text and write_text open a file, as UTF-8 without newline
    translation (so every line written ends in "\\n" on Windows too), and
    every other write calls write_text.  The one exception is the null
    device that cli._writing points stdout at."""
    calls = [(path.name, where, source) for path in Path(dataio.__file__).parent.glob("*.py")
             for where, source in _file_calls(path)]
    assert {call for call in calls if call[2].startswith("open(")} == {
        ("dataio.py", "open_text", "open(path, encoding='utf-8', newline='')"),
        ("dataio.py", "write_text", "open(path, 'w', encoding='utf-8', newline='')")}
    writes = {name for name, _, source in calls
              if source.startswith(("write_text(", "dataio.write_text("))}
    assert writes == {"cli.py", "dataio.py", "svgplot.py"}
    assert [call for call in calls if not call[2].startswith(
        ("open(", "write_text(", "dataio.write_text("))] == [
        ("cli.py", "_writing", "os.open(os.devnull, os.O_WRONLY)")]
