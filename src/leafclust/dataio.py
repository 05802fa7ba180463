"""File formats: CCD datasets, distance matrices, dendrograms, densities.

Two dataset formats are supported.  Long CSV has a single ``id,value``
header and one row per CCD measurement, rows grouped by id; it needs no
padding even though traces have unequal lengths.  Its records follow CSV
quoting (``"`` quotes, ``""`` escapes, blank lines skipped) and are parsed
by ``np.loadtxt``, which reads numbers as ``float`` does except that it
rejects underscores and non-ASCII digits (so does the CSV matrix reader).
JSON maps each id to its value array and may carry an optional ``groups``
object with a plant-type label per id (the key ``groups`` is reserved).

Files cross two boundaries, both UTF-8 without newline translation on any locale:
every writer ends in :func:`write_text`, and every reader builds its result inside
:func:`open_text`, so any error of an input is one ``DataFormatError`` naming the file.

All writers are deterministic: identical inputs produce byte-identical
files.  A JSON file is one compact line from Python's C encoder.  Floats are
written as their shortest round-trip repr (in CSV without a trailing ``.0``,
as in Newick and SVG), so values survive a write/read cycle bit-for-bit.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import re
import reprlib
import warnings
from dataclasses import dataclass

import numpy as np

from .density import CcdSequence, StepDensity
from .distances import DistanceKind, DistanceMatrix
from .hcluster import Dendrogram, Merge, _format_length


class DataFormatError(ValueError):
    """Raised when an input file cannot be parsed or violates its schema."""


@contextlib.contextmanager
def open_text(path, what: str):
    """``path``, a ``what`` file, opened as UTF-8 with ``newline=""``: the one read boundary.

    What the reader raises inside becomes a ``DataFormatError`` naming ``path``
    once: a format or ``csv`` error, an undecodable byte, invalid JSON (nested
    too deep too), and as a bad ``what`` schema any other KeyError, TypeError,
    ValueError or OverflowError (``float(10**400)`` overflows)."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            yield fh
    except (DataFormatError, csv.Error) as exc:
        raise DataFormatError(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise DataFormatError(f"{path}: cannot decode as {exc.encoding}: {exc.reason}") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DataFormatError(f"{path}: invalid JSON: {exc}") from None
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataFormatError(f"{path}: bad {what} schema: {exc}") from None


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, its line ends as given: the one write boundary."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of CCD traces, optionally tagged with groups."""

    sequences: tuple[CcdSequence, ...]
    groups: dict[str, str] | None = None

    def __post_init__(self):
        seqs = tuple(self.sequences)
        if not seqs:
            raise DataFormatError("dataset is empty")
        ids = [s.id for s in seqs]
        if len(set(ids)) != len(ids):
            raise DataFormatError("duplicate sequence ids in dataset")
        if self.groups is not None:
            unknown = set(self.groups) - set(ids)
            if unknown:
                raise DataFormatError(
                    f"groups refer to unknown ids: {reprlib.repr(sorted(unknown))}")
        object.__setattr__(self, "sequences", seqs)

    @property
    def ids(self) -> list[str]:
        return [s.id for s in self.sequences]


# ---------------------------------------------------------------------------
# datasets


def read_dataset(path, fmt: str = "csv") -> Dataset:
    if fmt == "csv":
        return _read_dataset_csv(path)
    if fmt == "json":
        return _read_dataset_json(path)
    raise DataFormatError(f"{path}: unknown dataset format {fmt!r}")


def write_dataset(dataset: Dataset, path, fmt: str = "csv") -> None:
    if fmt == "csv":
        rows = ((seq.id, [v]) for seq in dataset.sequences for v in seq.values)
        _write_csv(path, ["id", "value"], rows)
    elif fmt == "json":
        _write_dataset_json(dataset, path)
    else:
        raise DataFormatError(f"unknown dataset format {fmt!r}")


# np.loadtxt arguments for the records of a long CSV: CSV quoting, no comment
# character, exactly two columns per record (an id and a value).
_CSV_RECORDS = dict(delimiter=",", quotechar='"', comments=None, ndmin=1,
                    dtype=[("id", object), ("value", float)])
# Records per np.loadtxt call.  At most this many id strings are alive at
# once, and a chunk's rows (16 bytes each) stay below glibc's 128 KiB mmap
# threshold: freeing a larger mapping raises the threshold, and with chunks
# of 50,000 records `densify` of 400,000 records peaked 5 MiB higher.
_CSV_CHUNK = 8000


def _read_dataset_csv(path) -> Dataset:
    with open_text(path, "dataset") as fh:
        _skip_csv_header(fh)
        try:
            starts, ids, values = _csv_runs(fh)
        except ValueError as exc:
            _raise_first_bad_record(fh)
            raise DataFormatError(str(exc)) from None
        if len(set(ids)) < len(ids) or np.any(values < 0):
            _raise_first_bad_record(fh)
        blocks = np.split(values, starts[1:])
        return Dataset(tuple(_sequence(i, v) for i, v in zip(ids, blocks)))


def _skip_csv_header(fh) -> None:
    header = next(csv.reader(fh), None)
    if header is None:
        raise DataFormatError("empty file")
    if [c.strip() for c in header] != ["id", "value"]:
        raise DataFormatError(f"expected header 'id,value', got {reprlib.repr(header)}")


def _csv_runs(fh) -> tuple[np.ndarray, list[str], np.ndarray]:
    """Parse the records left in ``fh`` with numpy's C tokenizer.

    Returns the index at which each run of equal ids starts, the id of each
    run and every value.  Each chunk's ids are Python strings only until its
    run starts are found, which ``ids[1:] != ids[:-1]`` gives.
    """
    firsts, ids, values = [], [], []
    last = None
    with warnings.catch_warnings():  # blank lines and an empty last chunk are fine
        warnings.filterwarnings("ignore", r"(loadtxt: input|Input line \d+) contained no data",
                                UserWarning)
        while True:
            rows = np.loadtxt(fh, max_rows=_CSV_CHUNK, **_CSV_RECORDS)
            chunk = rows["id"]
            first = np.empty(chunk.size, dtype=bool)
            first[:1] = chunk[:1] != last
            first[1:] = chunk[1:] != chunk[:-1]
            firsts.append(first)
            ids += chunk[first].tolist()
            values.append(rows["value"].copy())  # a view would keep the ids alive
            if chunk.size < _CSV_CHUNK:
                break
            last = chunk[-1:]  # compared as a str scalar, 'a\0' would equal 'a'
    return np.flatnonzero(np.concatenate(firsts)), ids, np.concatenate(values)


def _raise_first_bad_record(fh) -> None:
    """Name the first record the vectorized read rejected, row by row; rows are
    CSV records numbered from the header as row 1, blank records included."""
    fh.seek(0)
    _skip_csv_header(fh)
    seen: set[str] = set()
    current = None
    for row_no, row in enumerate(csv.reader(fh), start=2):
        if not row:
            continue
        if len(row) != 2:
            raise DataFormatError(f"row {row_no}: expected 2 columns")
        seq_id, raw = row
        if seq_id != current:
            if seq_id in seen:
                raise DataFormatError(
                    f"row {row_no}: rows for id {reprlib.repr(seq_id)} are not contiguous")
            seen.add(seq_id)
            current = seq_id
        try:
            value = _number(raw)
        except ValueError:
            raise DataFormatError(f"row {row_no}: bad number {reprlib.repr(raw)} "
                                  f"for id {reprlib.repr(seq_id)}") from None
        if value < 0:
            raise DataFormatError(
                f"row {row_no}: negative CCD value for id {reprlib.repr(seq_id)}")


def _number(text: str) -> float:
    """``float(text)`` as numpy's parser reads it: no underscores, no non-ASCII digits."""
    if "_" not in text and text.strip().isascii():
        try:
            return float(text)
        except ValueError:  # not contextlib.suppress: that builds a context manager per cell
            pass
    raise ValueError(f"could not convert string to float: {reprlib.repr(text)}")


def _sequence(seq_id: str, values) -> CcdSequence:
    """Build one trace; values ``CcdSequence`` rejects are a format error."""
    try:
        return CcdSequence(seq_id, values)
    except ValueError as exc:  # InvalidCcdError, or values that are not numbers
        raise DataFormatError(str(exc)) from None


def _write_csv(path, header: list[str], rows) -> None:
    """``header``, then one record per ``(label, values)`` of ``rows``."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([label, *map(_format_length, values)] for label, values in rows)
    write_text(path, text.getvalue())


def _read_dataset_json(path) -> Dataset:
    def build(doc) -> Dataset:
        if not isinstance(doc, dict):
            raise DataFormatError("expected a JSON object")
        groups = _json_field(doc, "groups", _GROUPS) if "groups" in doc else None
        seqs = [_sequence(key, _json_field(doc, key, _NUMBERS))
                for key in doc if key != "groups"]
        if not seqs:
            raise DataFormatError("no sequences found")
        return Dataset(tuple(seqs), groups)
    return _read_json(path, "dataset", build)


def _write_dataset_json(dataset: Dataset, path) -> None:
    if "groups" in dataset.ids:
        raise DataFormatError("id 'groups' clashes with the reserved JSON key")
    doc: dict = {seq.id: seq.values.tolist() for seq in dataset.sequences}
    if dataset.groups is not None:
        doc["groups"] = {i: dataset.groups[i] for i in dataset.ids if i in dataset.groups}
    _dump_json(doc, path)


def _read_json(path, what: str, build):
    """``build(doc)`` of the JSON document in ``path``, inside :func:`open_text`."""
    with open_text(path, what) as fh:
        return build(json.load(fh, object_pairs_hook=_unique_keys))


def _unique_keys(pairs) -> dict:
    """A JSON object; a key given twice, or one that is not valid Unicode, is a format error."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise DataFormatError(f"duplicate key {reprlib.repr(key)}")
        _is_string(key)
        obj[key] = value
    return obj


def _is_string(value) -> bool:
    """Whether ``value`` is a str; JSON strings must be valid Unicode, so a lone
    surrogate in one (read from an escape like ``"\\ud800"``) is a format error."""
    if type(value) is str and not value.isascii() and _SURROGATE.search(value):
        raise DataFormatError(f"{reprlib.repr(value)} is not valid Unicode")
    return type(value) is str


def _dump_json(doc, path) -> None:
    # No indent: json.dumps runs its C encoder only without one.
    write_text(path, json.dumps(doc, separators=(",", ":")) + "\n")


_SURROGATE = re.compile(r"[\ud800-\udfff]")
_LABELS, _GROUPS, _NUMBERS = "a list of strings", "an object of strings", "an array of numbers"
# The types json reads for each kind of field.  Nothing is coerced (float("1.5"),
# bool("no") and tuple("ab") all succeed), and a bool, though a Python int, is no number.
_JSON_TYPES = {"an integer": (int,), "a number": (int, float), "true or false": (bool,),
               "an object": (dict,), _LABELS: (list,), _GROUPS: (dict,), _NUMBERS: (list,)}


def _json_field(record, key: str, expect: str):
    """``record[key]``, or TypeError if it is not ``expect``.  An array of numbers
    is returned as the integer or float ndarray of one np.array call."""
    value = record[key]
    if type(value) in _JSON_TYPES[expect]:
        if expect == _NUMBERS:
            try:
                array = np.array(value)
            except ValueError:  # nested lists of unequal length
                array = np.array(None)
            cells = value
            for _ in range(array.ndim - 1):  # np.array reads [true, 2] as [1, 2]
                cells = itertools.chain.from_iterable(cells)
            if array.dtype.kind in "iuf" and bool not in set(map(type, cells)):
                return array
        elif expect not in (_LABELS, _GROUPS) or all(
                map(_is_string, value.values() if expect == _GROUPS else value)):
            return value
    raise TypeError(f"{reprlib.repr(key)} must be {expect}, got {reprlib.repr(value)}")


# ---------------------------------------------------------------------------
# distance matrices


def write_matrix(dm: DistanceMatrix, path, fmt: str = "csv") -> None:
    if fmt == "csv":
        _write_csv(path, ["", *dm.labels], zip(dm.labels, dm.entries))
    elif fmt == "json":
        doc = {
            "labels": list(dm.labels),
            "kind": {"tag": dm.kind.name, "moment_order": dm.kind.moment_order},
            "entries": dm.entries.tolist(),
        }
        _dump_json(doc, path)
    else:
        raise DataFormatError(f"unknown matrix format {fmt!r}")


def read_matrix(path, fmt: str = "csv", kind: DistanceKind | None = None) -> DistanceMatrix:
    """Read a matrix written by :func:`write_matrix`.

    CSV files do not carry the distance kind, so ``kind`` may be supplied;
    it defaults to L1.
    """
    if fmt == "csv":
        with open_text(path, "matrix") as fh:
            rows = list(csv.reader(fh))
            if not rows or rows[0][:1] != [""]:
                raise DataFormatError("not a labeled square matrix CSV")
            labels = rows[0][1:]
            if len(rows) != len(labels) + 1:
                raise DataFormatError(f"expected {len(labels)} data rows")
            entries = np.empty((len(labels), len(labels)))
            for i, row in enumerate(rows[1:]):
                if len(row) != len(labels) + 1 or row[0] != labels[i]:
                    raise DataFormatError(f"malformed row {i + 2}")
                try:
                    entries[i] = [_number(v) for v in row[1:]]
                except ValueError as exc:
                    raise DataFormatError(f"row {i + 2}: {exc}") from None
            return DistanceMatrix(tuple(labels), entries, kind or DistanceKind("l1"))
    if fmt == "json":
        def build(doc) -> DistanceMatrix:
            file_kind = DistanceKind(doc["kind"]["tag"],
                                     _json_field(doc["kind"], "moment_order", "an integer"))
            return DistanceMatrix(_json_field(doc, "labels", _LABELS),
                                  _json_field(doc, "entries", _NUMBERS), kind or file_kind)
        return _read_json(path, "matrix", build)
    raise DataFormatError(f"{path}: unknown matrix format {fmt!r}")


# ---------------------------------------------------------------------------
# dendrograms


def write_dendrogram(dend: Dendrogram, path) -> None:
    doc = {
        "labels": list(dend.labels),
        "merges": [
            {"left": mg.left, "right": mg.right, "height": float(mg.height), "size": mg.size}
            for mg in dend.merges
        ],
    }
    _dump_json(doc, path)


def read_dendrogram(path) -> Dendrogram:
    def build(doc) -> Dendrogram:
        merges = tuple(
            Merge(_json_field(r, "left", "an integer"), _json_field(r, "right", "an integer"),
                  float(_json_field(r, "height", "a number")),
                  _json_field(r, "size", "an integer"))
            for r in doc["merges"]
        )
        return Dendrogram(_json_field(doc, "labels", _LABELS), merges)
    return _read_json(path, "dendrogram", build)


def write_clusters(labels, assignment, k: int, path) -> None:
    """Flat-cluster assignment as JSON: {"k": k, "assignment": {label: id}}."""
    doc = {
        "k": int(k),
        "assignment": {str(label): int(c) for label, c in zip(labels, assignment)},
    }
    _dump_json(doc, path)


# ---------------------------------------------------------------------------
# densities (intermediate artifact for stagewise CLI runs)


def write_densities(densities, path) -> None:
    densities = list(densities)
    ids = [d.source_id for d in densities]
    if len(set(ids)) != len(ids):
        raise DataFormatError("duplicate source ids among densities")
    doc = {
        "densities": {
            d.source_id: {
                "breakpoints": d.breakpoints.tolist(),
                "heights": d.heights.tolist(),
                "rotation": float(d.rotation),
                "direction_defined": bool(d.direction_defined),
            }
            for d in densities
        }
    }
    _dump_json(doc, path)


def read_densities(path) -> list[StepDensity]:
    def build(doc) -> list[StepDensity]:
        return [
            StepDensity(
                _json_field(rec, "breakpoints", _NUMBERS),
                _json_field(rec, "heights", _NUMBERS),
                source_id=seq_id,
                rotation=float(_json_field(rec, "rotation", "a number")),
                direction_defined=_json_field(rec, "direction_defined", "true or false"),
            )
            for seq_id, rec in _json_field(doc, "densities", "an object").items()
        ]
    return _read_json(path, "densities", build)
