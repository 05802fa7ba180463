"""Command line front end: ingest, normalize, distances, clustering, plots.

Every pipeline stage is its own subcommand so intermediate artifacts can be
produced and inspected independently; ``pipeline`` chains them all.  Flags
override an optional ``key=value`` config file, which overrides built-in
defaults.  Each step, flag and config parsing included, runs in a named
``_stage``, the one failure boundary; ``main`` alone returns the exit code,
which the stage name decides: 1 for the input stages ``config``, ``synth``,
``write`` and ``read-*``, 2 for every other stage, 0 on success.
``StageError`` keeps every error line one line and bounds its bytes, however
long the command line or its paths; ``_COMMANDS`` declares each subcommand once.
"""

from __future__ import annotations

import argparse
import os
import reprlib
import sys
from collections import ChainMap
from contextlib import contextmanager
from pathlib import Path

from . import dataio, svgplot, synth
from .density import density_from_ccd, leaf_outline, normalize_leaf
from .distances import DistanceKind, DistanceTag, Pairs, distance_matrix
from .hcluster import Linkage, agglomerate, cut, to_newick

DISTANCE_CHOICES = tuple(tag.value for tag in DistanceTag) + ("all",)

# name -> (default, argparse keywords of its --flag); flags override a
# config file, which overrides the default.
_OPTIONS = {
    "input": (None, dict(help="input file")),
    "format": ("csv", dict(choices=("csv", "json", "densities"), help="input format")),
    "distance": ("all", dict(choices=DISTANCE_CHOICES, help="distance kind")),
    "r": (5, dict(type=int, help="moment order for the moments distance")),
    "linkage": ("complete", dict(choices=tuple(l.value for l in Linkage), help="linkage rule")),
    "cut": (None, dict(type=int, help="extract this many flat clusters")),
    "outdir": ("out", dict(help="output directory")),
    "dendrogram": (None, dict(help="dendrogram JSON to plot")),
    "no_plots": (None, dict(action="store_const", const=True, help="skip SVG output")),
    "seed": (0, dict(type=int, help="random seed")),
    "groups": (4, dict(type=int, help="number of groups")),
    "per_group": (5, dict(type=int, help="leaves per group")),
    "n_min": (500, dict(type=int, help="minimum trace resolution")),
    "n_max": (4000, dict(type=int, help="maximum trace resolution")),
    "noise": (0.02, dict(type=float, help="multiplicative noise level")),
    "output": ("synthetic.json", dict(help="output file")),
    "config": (None, dict(help="key=value config file (flags override it)")),
}


# A longer error message keeps its first and last _SHOWN // 2 bytes of UTF-8,
# cut between characters: a path or an argument list can be any length, and
# the start (file, flag) and the end (argparse's "choose from" list) say the
# most.
_SHOWN = 500

# Characters a message shows escaped, as repr does, so that it stays one line:
# C0 and C1 controls, DEL and the Unicode line and paragraph separators.  The
# lone surrogates of undecodable paths and arguments are escaped as they encode.
_ESCAPED = {c: repr(chr(c))[1:-1] for c in (*range(0x20), *range(0x7F, 0xA0), 0x2028, 0x2029)}


class StageError(Exception):
    """A pipeline stage failed; its exit code follows from the stage name."""

    def __init__(self, stage: str, message: str):
        raw = message.translate(_ESCAPED).encode(errors="backslashreplace")
        if len(raw) > _SHOWN:  # decoding drops the parts of the characters cut
            raw = raw[:_SHOWN // 2] + b"..." + raw[-(_SHOWN // 2):]
        message = raw.decode(errors="ignore")
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
        self.code = 1 if stage in ("config", "synth", "write") or stage.startswith("read-") else 2


@contextmanager
def _stage(name: str):
    """Report an OSError or ValueError raised inside as a failure of stage ``name``."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise StageError(name, str(exc)) from exc


def _read_config(path: str) -> dict:
    """The options of a key=value file, each checked as its flag would be.

    A key may name an option this subcommand does not use: one file can serve several.
    """
    values: dict = {}
    with dataio.open_text(path, "config") as fh:
        text = fh.read()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _OPTIONS:
            raise ValueError(f"{path}:{line_no}: unknown option {reprlib.repr(key)}")
        if key == "config":
            raise ValueError(f"{path}:{line_no}: a config file cannot name another config file")
        try:
            values[key] = _config_value(key, value.strip())
        except ValueError as exc:
            raise ValueError(f"{path}:{line_no}: {exc}") from None
    return values


_BOOLEANS = {"true": True, "yes": True, "on": True, "false": False, "no": False, "off": False}


def _config_value(key: str, text: str):
    """``text`` converted and checked by the ``type``/``choices`` of option ``key``."""
    spec, shown = _OPTIONS[key][1], reprlib.repr(text)
    if spec.get("action") == "store_const":
        if text.lower() not in _BOOLEANS:
            raise ValueError(f"{key}: expected true or false, got {shown}")
        return _BOOLEANS[text.lower()]
    convert = spec.get("type", str)
    try:
        value = convert(text)
    except ValueError:
        raise ValueError(f"{key}: invalid {convert.__name__} value {shown}") from None
    choices = spec.get("choices")
    if choices is not None and value not in choices:
        raise ValueError(f"{key}: invalid choice {shown} (choose from {', '.join(choices)})")
    return value


class Options(ChainMap):
    """Flag > config-file > default resolution for one subcommand run: a ``ChainMap``
    of the flags given, the config file's values and the defaults, in that order,
    so ``opts.get(key)`` reads the first of ``opts.maps`` that holds ``key``."""

    def __init__(self, args: argparse.Namespace):
        flags = {k: v for k, v in vars(args).items() if v is not None}
        config_path = flags.get("config")
        super().__init__(flags, _read_config(config_path) if config_path else {},
                         {key: default for key, (default, _) in _OPTIONS.items()})
        DistanceKind(DistanceTag.MOMENT_EUCLIDEAN, self["r"])  # checks r
        if self["cut"] is not None and self["cut"] < 1:
            raise ValueError(f"cut must be >= 1, got {self['cut']}")
        if "input" in vars(args) and self["input"] is None:
            raise ValueError("missing required option --input")


def _load_dataset(opts: Options, min_leaves: int = 1) -> dataio.Dataset:
    path = opts.get("input")
    fmt = opts.get("format")
    with _stage("read-dataset"):
        dataset = dataio.read_dataset(path, fmt)
        _require_leaves(path, len(dataset.sequences), min_leaves)
    return dataset


def _require_leaves(path, count: int, min_leaves: int) -> None:
    """Reject an input too small for the subcommand while it is being read."""
    if count < min_leaves:
        raise ValueError(f"{path}: distances need at least {min_leaves} leaves, found {count}")


def _normalize_all(dataset: dataio.Dataset):
    with _stage("normalize"):
        return [normalize_leaf(seq) for seq in dataset.sequences]


def _outdir(opts: Options) -> Path:
    out = Path(opts.get("outdir"))
    with _stage("write"):
        out.mkdir(parents=True, exist_ok=True)
    return out


@contextmanager
def _writing(path: Path):
    """Run the write of artifact ``path`` as the ``write`` stage, then report it.

    A reader that has closed stdout stops the reports, not the run: after a
    broken pipe stdout points at the null device, so later lines and the
    flush at exit go nowhere instead of failing.
    """
    with _stage("write"):
        yield
    try:
        print(f"wrote {path}", flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(opts: Options) -> None:
    with _stage("synth"):
        dataset = synth.synth_dataset(
            opts.get("groups"), opts.get("per_group"), (opts.get("n_min"), opts.get("n_max")),
            opts.get("noise"), opts.get("seed"),
        )
    out = Path(opts.get("output"))
    with _writing(out):
        dataio.write_dataset(dataset, out, fmt="json")


def cmd_densify(opts: Options) -> None:
    dataset = _load_dataset(opts)
    densities = _normalize_all(dataset)
    out = _outdir(opts) / "densities.json"
    with _writing(out):
        dataio.write_densities(densities, out)


def _densities_for_distmat(opts: Options):
    fmt = opts.get("format")
    if fmt == "densities":
        path = opts.get("input")
        with _stage("read-densities"):
            densities = dataio.read_densities(path)
            _require_leaves(path, len(densities), 2)
        return densities
    return _normalize_all(_load_dataset(opts, min_leaves=2))


def _distance_stage(opts: Options, densities, out: Path):
    """Compute and write (CSV and JSON) one matrix per requested kind.

    The first integral kind's stage computes every requested integral kind,
    from one merge per pair (``Pairs``); the later ones read their values.
    """
    labels = [d.source_id for d in densities]
    name = opts.get("distance")
    kinds = [DistanceKind(tag, opts.get("r"))
             for tag in (list(DistanceTag) if name == "all" else [DistanceTag(name)])]
    pairs = Pairs(densities, kinds)
    matrices = []
    for kind in kinds:
        with _stage(f"distances-{kind.name}"):
            dm = distance_matrix(pairs, labels, kind)
        for fmt in ("csv", "json"):
            path = out / f"matrix_{kind.name}.{fmt}"
            with _writing(path):
                dataio.write_matrix(dm, path, fmt)
        matrices.append(dm)
    return matrices


def cmd_distmat(opts: Options) -> None:
    densities = _densities_for_distmat(opts)
    _distance_stage(opts, densities, _outdir(opts))


def cmd_cluster(opts: Options) -> None:
    with _stage("read-matrix"):
        dm = dataio.read_matrix(opts.get("input"), opts.get("format"))
    _cluster_stage(opts, dm, _outdir(opts), "", plot=False)


def _cluster_stage(opts: Options, dm, out: Path, suffix: str, plot: bool) -> None:
    """Cluster one matrix and write ``dendrogram<suffix>.json``/``.nwk``, with
    ``--cut`` also ``clusters<suffix>.json`` and with ``plot`` the tree's SVG."""
    linkage = opts.get("linkage")
    with _stage("cluster"):
        dend = agglomerate(dm, Linkage(linkage))
    json_path = out / f"dendrogram{suffix}.json"
    with _writing(json_path):
        dataio.write_dendrogram(dend, json_path)
    nwk_path = out / f"dendrogram{suffix}.nwk"
    with _writing(nwk_path):
        dataio.write_text(nwk_path, to_newick(dend) + "\n")
    k = opts.get("cut")
    if k is not None:
        with _stage("cut"):
            assignment = cut(dend, k)
        clusters_path = out / f"clusters{suffix}.json"
        with _writing(clusters_path):
            dataio.write_clusters(dend.labels, assignment, k, clusters_path)
    if plot:
        svg_path = out / f"dendrogram{suffix}.svg"
        with _writing(svg_path):
            svgplot.plot_dendrogram(dend, svg_path, title=f"{linkage} linkage, {dm.kind.name}")


def cmd_plot(opts: Options) -> None:
    dataset = _load_dataset(opts)
    dend_path, dend = opts.get("dendrogram"), None
    if dend_path is not None:  # read before any SVG is written
        with _stage("read-dendrogram"):
            dend = dataio.read_dendrogram(dend_path)
    out = _outdir(opts)
    _plot_dataset(dataset, out)
    if dend is not None:
        path = out / "dendrogram.svg"
        with _writing(path):
            svgplot.plot_dendrogram(dend, path)


def _plot_dataset(dataset: dataio.Dataset, out: Path) -> None:
    normalized = _normalize_all(dataset)
    with _stage("plot"):
        raw = [density_from_ccd(seq) for seq in dataset.sequences]
        flat = [leaf_outline(d) for d in raw]
        turned = [leaf_outline(d, n.rotation) for d, n in zip(raw, normalized)]
    for name, densities, title in (
        ("densities_unrotated.svg", raw, "circular densities (unrotated)"),
        ("densities_normalized.svg", normalized, "circular densities (normalized)"),
    ):
        path = out / name
        with _writing(path):
            svgplot.plot_densities(densities, path, groups=dataset.groups, title=title)
    for name, outlines in (
        ("leaves_unrotated.svg", flat),
        ("leaves_rotated.svg", turned),
    ):
        path = out / name
        with _writing(path):
            svgplot.plot_leaves(outlines, path)


def cmd_pipeline(opts: Options) -> None:
    dataset = _load_dataset(opts, min_leaves=2)
    out = _outdir(opts)
    densities = _normalize_all(dataset)
    plots = not opts.get("no_plots")
    for dm in _distance_stage(opts, densities, out):
        _cluster_stage(opts, dm, out, f"_{dm.kind.name}", plots)
    if plots:
        _plot_dataset(dataset, out)


# ---------------------------------------------------------------------------
# parser


# name -> (function, help, options); every subcommand also takes --config.
_COMMANDS = {
    "synth": (cmd_synth, "generate a labeled synthetic dataset",
              ("groups", "per_group", "n_min", "n_max", "noise", "seed", "output")),
    "densify": (cmd_densify, "normalize a dataset into step densities",
                ("input", "format", "outdir")),
    "distmat": (cmd_distmat, "compute pairwise distance matrices",
                ("input", "format", "distance", "r", "outdir")),
    "cluster": (cmd_cluster, "cluster a distance matrix",
                ("input", "format", "linkage", "cut", "outdir")),
    "plot": (cmd_plot, "render density, leaf and dendrogram SVGs",
             ("input", "format", "dendrogram", "outdir")),
    "pipeline": (cmd_pipeline, "run the full pipeline",
                 ("input", "format", "distance", "r", "linkage", "cut", "outdir", "no_plots")),
}


class _Parser(argparse.ArgumentParser):
    """A bad or unknown flag fails as a bad config value does, with a ``ValueError``."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="leafclust",
                     description="Cluster leaf shapes from centroid-contour-distance traces.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for key in (*keys, "config"):
            p.add_argument(f"--{key.replace('_', '-')}", **_OPTIONS[key][1])
    return parser


def main(argv=None) -> int:
    try:
        with _stage("config"):  # SystemExit from -h passes through
            args = build_parser().parse_args(argv)
            opts = Options(args)
        _COMMANDS[args.command][0](opts)
    except StageError as exc:
        print(f"leafclust: error {exc}", file=sys.stderr)
        return exc.code
    except Exception as exc:  # pragma: no cover - unexpected failure
        print(f"leafclust: internal error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
