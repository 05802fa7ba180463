"""leafclust benchmark: three CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run draws its input from ``--seed``, computes reference results with
the benchmark's own oracle (``oracle.py``, cached per seed), then runs the
workload's command sequence as fresh ``leafclust`` processes, one at a time
(closed loop, one client), until ``--seconds`` of measured time is used.
Every invocation's outputs are checked against the oracle.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` each iteration runs once untraced
and once through ``tracer.py``, which times each layer in-process, and the
JSON object carries the per-layer metrics.  The lines before it are a
readable report and a ``record`` line with machine facts, seeds and input
sizes; the record is also kept under ``.bench_run/records/``.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools to one thread before numpy loads, here and in
# every child process: the load is one CLI process at a time.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import xml.parsers.expat  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".bench_run"
TOL = 1e-12
CUT_K = 4
LINKAGES = ("complete", "single", "average")
SETUP_REPEATS = 9
CLI_SNIPPET = "import sys\nfrom leafclust.cli import main\nsys.exit(main())\n"
SETUP_SNIPPET = "import sys\nfrom leafclust import dataio\ngetattr(dataio, sys.argv[1])(*sys.argv[2:])\n"
# A dataset's total trace length is held within this share of its nominal
# value m * (n_min + n_max) / 2, so that runs on different seeds do the same
# amount of merge and plot work and their times can be compared.
SUM_N_TOLERANCE = 0.005

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MiB"), ("out_bytes", "bytes"))
PER_LAYER = (
    ("cli.self_s", "s"), ("cli.import_s", "s"),
    ("dataio.read_s", "s"), ("dataio.write_s", "s"),
    ("dataio.bytes_read", "bytes"), ("dataio.bytes_written", "bytes"),
    ("density.normalize_s", "s"), ("density.leaves", "count"), ("density.intervals", "count"),
    ("distances.l1_s", "s"), ("distances.sup_s", "s"), ("distances.hellinger_s", "s"),
    ("distances.moments_s", "s"), ("distances.pairs", "count"),
    ("distances.merged_points", "count"),
    ("hcluster.agglomerate_complete_s", "s"), ("hcluster.agglomerate_single_s", "s"),
    ("hcluster.agglomerate_average_s", "s"), ("hcluster.cut_s", "s"),
    ("hcluster.newick_s", "s"), ("hcluster.merges", "count"),
    ("svgplot.densities_s", "s"), ("svgplot.leaves_s", "s"), ("svgplot.dendrogram_s", "s"),
    ("svgplot.bytes", "bytes"), ("svgplot.points", "count"),
)
COMPUTED = {"distances.merged_points", "svgplot.points"}


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Step:
    """One CLI invocation and the check of the artifacts it writes."""

    args: list[str]
    check: Callable[[], list[str]]


@dataclass
class Reference:
    """Oracle results for one dataset."""

    labels: list[str]
    densities: list
    matrices: dict[str, np.ndarray]
    trees: dict[tuple[str, str], tuple[list[float], list[int]]]
    merged_points: int


@dataclass(frozen=True)
class Workload:
    name: str
    synth: tuple  # (groups, per_group, (n_min, n_max), noise) for synth_dataset
    kinds: tuple[str, ...]  # matrices the oracle computes
    trees: tuple[tuple[str, str], ...]  # (kind, linkage) dendrograms the oracle builds
    # Writes the CLI's input into the work directory and returns the dataio
    # reader and arguments that read it back, which setup_s times.
    write_inputs: Callable[[Path, object, Reference], tuple[str, list[str]]]
    steps: Callable[[Path, Reference], list[Step]]


def _write_dataset_json(work: Path, dataset, ref: Reference) -> tuple[str, list[str]]:
    doc = {seq.id: [float(v) for v in seq.values] for seq in dataset.sequences}
    doc["groups"] = dict(dataset.groups)
    path = work / "leaves.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return "read_dataset", [str(path), "json"]


def _write_dataset_csv(work: Path, dataset, ref: Reference) -> tuple[str, list[str]]:
    path = work / "leaves.csv"
    with open(path, "w") as fh:
        fh.write("id,value\n")
        for seq in dataset.sequences:
            fh.writelines(f"{seq.id},{v:.17g}\n" for v in seq.values)
    return "read_dataset", [str(path), "csv"]


def _write_l1_matrix(work: Path, dataset, ref: Reference) -> tuple[str, list[str]]:
    path = work / "matrix_l1.csv"
    with open(path, "w") as fh:
        fh.write("," + ",".join(ref.labels) + "\n")
        for label, row in zip(ref.labels, ref.matrices["l1"]):
            fh.write(label + "," + ",".join(f"{v:.17g}" for v in row) + "\n")
    return "read_matrix", [str(path), "csv"]


def _pipeline_steps(work: Path, ref: Reference) -> list[Step]:
    out = work / "out"
    svgs = [f"dendrogram_{k}.svg" for k in oracle.KINDS] + [
        "densities_unrotated.svg", "densities_normalized.svg",
        "leaves_unrotated.svg", "leaves_rotated.svg"]

    def check() -> list[str]:
        problems = check_matrices(out, ref, oracle.KINDS)
        for kind in oracle.KINDS:
            problems += check_tree(out, f"dendrogram_{kind}", f"clusters_{kind}",
                                   ref, (kind, "complete"))
        return problems + check_svgs(out, svgs)

    return [Step(["pipeline", "--input", str(work / "leaves.json"), "--format", "json",
                  "--distance", "all", "--cut", str(CUT_K), "--outdir", str(out)], check)]


def _stagewise_steps(work: Path, ref: Reference) -> list[Step]:
    out = work / "out"
    densities = out / "densities.json"
    return [
        Step(["densify", "--input", str(work / "leaves.csv"), "--format", "csv",
              "--outdir", str(out)], lambda: check_densities(densities, ref)),
        Step(["distmat", "--input", str(densities), "--format", "densities",
              "--distance", "all", "--outdir", str(out)],
             lambda: check_matrices(out, ref, oracle.KINDS)),
    ]


def _cluster_steps(work: Path, ref: Reference) -> list[Step]:
    steps = []
    for linkage in LINKAGES:
        out = work / "out" / linkage
        steps.append(Step(
            ["cluster", "--input", str(work / "matrix_l1.csv"), "--format", "csv",
             "--linkage", linkage, "--cut", str(CUT_K), "--outdir", str(out)],
            lambda out=out, linkage=linkage: check_tree(
                out, "dendrogram", "clusters", ref, ("l1", linkage))))
    return steps


WORKLOADS = {w.name: w for w in (
    # The README run (m = 60) and the only workload that draws SVGs; its time
    # splits over plots, distances and clustering.
    Workload("pipeline-plots", (4, 15, (500, 4000), 0.02), oracle.KINDS,
             tuple((k, "complete") for k in oracle.KINDS),
             _write_dataset_json, _pipeline_steps),
    # Resolution axis (m = 40, n up to 16000): distances and the densities.json
    # hand-off between two processes dominate; clustering and plots do nothing.
    Workload("stagewise-hires", (4, 10, (4000, 16000), 0.02), oracle.KINDS, (),
             _write_dataset_csv, _stagewise_steps),
    # Leaf-count axis (m = 128): agglomerate dominates, once per linkage; the
    # input matrix comes from the oracle, so it does not depend on the program.
    Workload("cluster-wide", (4, 32, (64, 256), 0.05), ("l1",),
             tuple(("l1", k) for k in LINKAGES),
             _write_l1_matrix, _cluster_steps),
)}


# ---------------------------------------------------------------------------
# output checks (each returns a list of problems; empty means correct)


def _read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


def _guard(path: Path, fn) -> list[str]:
    try:
        return fn()
    except (OSError, ValueError, KeyError, TypeError, IndexError,
            xml.parsers.expat.ExpatError) as exc:
        return [f"{path.name}: {type(exc).__name__}: {exc}"]


def _compare(name: str, got: np.ndarray, want: np.ndarray) -> list[str]:
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape}, expected {want.shape}"]
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    return [] if err <= TOL else [f"{name}: max error {err:.3g} > {TOL:g}"]


def check_matrices(out: Path, ref: Reference, kinds) -> list[str]:
    problems = []
    for kind in kinds:
        path = out / f"matrix_{kind}.csv"

        def from_csv(path=path, kind=kind):
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            if rows[0] != [""] + ref.labels or [r[0] for r in rows[1:]] != ref.labels:
                return [f"{path.name}: labels differ"]
            got = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
            return _compare(path.name, got, ref.matrices[kind])

        problems += _guard(path, from_csv)
        path = out / f"matrix_{kind}.json"

        def from_json(path=path, kind=kind):
            doc = _read_json(path)
            if doc["labels"] != ref.labels or doc["kind"]["tag"] != kind:
                return [f"{path.name}: labels or kind differ"]
            return _compare(path.name, np.array(doc["entries"], dtype=float),
                            ref.matrices[kind])

        problems += _guard(path, from_json)
    return problems


def check_tree(out: Path, stem: str, clusters_stem: str, ref: Reference,
               key: tuple[str, str]) -> list[str]:
    heights, assignment = ref.trees[key]
    path = out / f"{stem}.json"

    def dendrogram():
        doc = _read_json(path)
        if doc["labels"] != ref.labels:
            return [f"{path.name}: labels differ"]
        got = np.array([mg["height"] for mg in doc["merges"]], dtype=float)
        return _compare(f"{path.name} merge heights", got, np.array(heights))

    problems = _guard(path, dendrogram)
    cpath = out / f"{clusters_stem}.json"

    def clusters():
        doc = _read_json(cpath)
        want = dict(zip(ref.labels, assignment))
        if doc["k"] != CUT_K or doc["assignment"] != want:
            return [f"{cpath.name}: cut into {CUT_K} differs from the oracle's"]
        return []

    problems += _guard(cpath, clusters)
    npath = out / f"{stem}.nwk"

    def newick():
        leaves = oracle.newick_leaves(npath.read_text())
        return [] if sorted(leaves) == sorted(ref.labels) else [
            f"{npath.name}: {len(leaves)} leaves, expected the {len(ref.labels)} labels"]

    return problems + _guard(npath, newick)


def check_svgs(out: Path, names) -> list[str]:
    problems = []
    for name in names:
        path = out / name

        def parse(path=path):
            parser = xml.parsers.expat.ParserCreate()
            root = []
            parser.StartElementHandler = lambda tag, attrs: root or root.append(tag)
            parser.Parse(path.read_bytes(), True)  # ParseFile's small reads are slow
            return [] if root == ["svg"] else [f"{path.name}: root element is {root}"]

        problems += _guard(path, parse)
    return problems


def check_densities(path: Path, ref: Reference) -> list[str]:
    def densities():
        recs = _read_json(path)["densities"]
        if list(recs) != ref.labels:
            return [f"{path.name}: ids differ"]
        problems = []
        for label, (breaks, heights) in zip(ref.labels, ref.densities):
            rec = recs[label]
            problems += _compare(f"{path.name} {label} breakpoints",
                                 np.array(rec["breakpoints"], dtype=float), breaks)
            problems += _compare(f"{path.name} {label} heights",
                                 np.array(rec["heights"], dtype=float), heights)
        return problems

    return _guard(path, densities)


# ---------------------------------------------------------------------------
# set-up: input draw and cached oracle


def draw_dataset(workload: Workload, seed: int):
    """First dataset in the seed's sequence whose total length is nominal.

    Candidate j is ``synth_dataset(*workload.synth, seed + j * 2**32)``;
    candidate 0 is the seed itself.
    """
    from leafclust.synth import synth_dataset

    groups, per_group, (lo, hi), noise = workload.synth
    nominal = groups * per_group * (lo + hi) / 2
    for j in range(10_000):
        candidate = seed + (j << 32)
        dataset = synth_dataset(groups, per_group, (lo, hi), noise, candidate)
        if abs(sum(len(s) for s in dataset.sequences) / nominal - 1) <= SUM_N_TOLERANCE:
            return candidate, dataset
    raise RuntimeError(f"no dataset of nominal size for seed {seed}")


def build_reference(workload: Workload, dataset_seed: int, dataset) -> Reference:
    """Oracle results for a dataset, cached on disk per dataset seed."""
    labels = [s.id for s in dataset.sequences]
    densities = [oracle.normalize(s.values) for s in dataset.sequences]
    digest = hashlib.sha256((BENCH_DIR / "oracle.py").read_bytes()
                            + repr((workload.synth, workload.kinds, workload.trees)).encode()
                            ).hexdigest()[:16]
    cache = WORK_ROOT / "oracle" / f"{workload.name}-{dataset_seed}-{digest}.json"
    if cache.exists():
        doc = _read_json(cache)
    else:
        mats, merged = oracle.matrices(densities, workload.kinds)
        trees = {}
        for kind, linkage in workload.trees:
            merges = oracle.agglomerate(mats[kind], linkage)
            trees[f"{kind}/{linkage}"] = ([h for _a, _b, h in merges],
                                          oracle.cut(merges, len(labels), CUT_K))
        doc = {"matrices": {k: v.tolist() for k, v in mats.items()},
               "trees": trees, "merged_points": merged}
        cache.parent.mkdir(parents=True, exist_ok=True)
        tmp = cache.with_suffix(".tmp")
        tmp.write_text(json.dumps(doc))
        tmp.replace(cache)
    return Reference(
        labels, densities,
        {k: np.array(v, dtype=float) for k, v in doc["matrices"].items()},
        {tuple(key.split("/")): (h, a) for key, (h, a) in doc["trees"].items()},
        doc["merged_points"])


# ---------------------------------------------------------------------------
# processes


@dataclass
class Proc:
    code: int
    wall: float
    cpu: float
    rss_kb: int
    stderr: str


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def run_process(argv: list[str], cwd: Path) -> Proc:
    """Run one child to completion; wall time, CPU time and peak RSS from wait4."""
    err_path = cwd / "stderr.txt"
    with open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                err_path.read_text()[-400:])


# ---------------------------------------------------------------------------
# iterations


@dataclass
class Iteration:
    wall: float = 0.0
    cpu: float = 0.0
    rss_kb: int = 0
    out_bytes: int = 0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)


def run_iteration(work: Path, steps: list[Step], run_id: str, traced: bool) -> Iteration:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    it = Iteration()
    procs = []
    for index, step in enumerate(steps):
        if traced:
            spans_path = work / f"spans-{index}.json"
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"), str(spans_path),
                    f"{run_id}:{index}", *step.args]
        else:
            argv = [sys.executable, "-c", CLI_SNIPPET, *step.args]
        proc = run_process(argv, work)
        procs.append(proc)
        it.wall += proc.wall
        it.cpu += proc.cpu
        it.rss_kb = max(it.rss_kb, proc.rss_kb)
        if traced and proc.code == 0:
            it.spans.append(_read_json(spans_path))
    it.out_bytes = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    for step, proc in zip(steps, procs):
        it.attempted += 1
        problems = ([f"exit {proc.code}: {proc.stderr.strip()}"] if proc.code != 0
                    else step.check())
        if problems:
            it.failed += 1
            it.problems += [f"{step.args[0]}: {p}" for p in problems]
    return it


def layer_metrics(spans_docs: list[dict], ref: Reference) -> dict[str, float]:
    """Per-layer metrics of one traced iteration.

    A span's self time is its duration minus the time its child spans
    cover; each layer's time is the sum of its spans' self times.
    """
    values = {name: 0 for name, _unit in PER_LAYER}
    imports = []
    for doc in spans_docs:
        imports.append(doc["import_s"])
        spans = doc["spans"]
        child_time = [0.0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        for span, covered in zip(spans, child_time):
            metric = "cli.self_s" if span["name"] == "cli" else span["name"] + "_s"
            values[metric] += span["end"] - span["start"] - covered
            for key, count in span["counts"].items():
                values[key] += count
            if span["name"] in ("distances.l1", "distances.sup", "distances.hellinger"):
                values["distances.merged_points"] += ref.merged_points
    values["cli.import_s"] = statistics.median(imports) if imports else 0.0
    return values


# ---------------------------------------------------------------------------
# run


def machine_facts() -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh
                              if ln.startswith("model name")), cpu_model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": THREAD_ENV}


def setup_times(work: Path, reader: str, reader_args: list[str]) -> list[float]:
    """Wall times of fresh processes that import leafclust and read the input.

    The first process, which may compile bytecode, is not counted.
    """
    argv = [sys.executable, "-c", SETUP_SNIPPET, reader, *reader_args]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        proc = run_process(argv, work)
        if proc.code != 0:
            raise RuntimeError(f"reading the input failed: {proc.stderr}")
        times.append(proc.wall)
    return times[1:]


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    facts = machine_facts()
    dataset_seed, dataset = draw_dataset(workload, seed)
    ref = build_reference(workload, dataset_seed, dataset)
    work = WORK_ROOT / f"{workload.name}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    reader, reader_args = workload.write_inputs(work, dataset, ref)
    steps = workload.steps(work, ref)
    setup = setup_times(work, reader, reader_args)

    plain, traced = [], []
    measured = 0.0
    while True:
        run_id = f"{workload.name}:{seed}:{len(plain)}"
        order = [False, True] if trace else [False]
        if len(plain) % 2:  # alternate which side of a traced round runs first
            order.reverse()
        for is_traced in order:
            it = run_iteration(work, steps, run_id, is_traced)
            (traced if is_traced else plain).append(it)
            measured += it.wall
        per_round = measured / len(plain)
        if measured + per_round > seconds:
            break
    shutil.rmtree(work, ignore_errors=True)

    iterations = plain + traced
    attempted = sum(it.attempted for it in iterations)
    failed = sum(it.failed for it in iterations)
    end_to_end = {
        "wall_s": statistics.median(it.wall for it in plain),
        "cpu_s": statistics.median(it.cpu for it in plain),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(it.rss_kb for it in plain) / 1024,
        "out_bytes": statistics.median(it.out_bytes for it in plain),
    }
    record = {
        "workload": workload.name, "seed": seed, "dataset_seed": dataset_seed,
        "trace": int(trace), "seconds": seconds, "machine": facts,
        "inputs": {"m": len(ref.labels), "sum_n": sum(len(s) for s in dataset.sequences),
                   "merged_points_per_matrix": ref.merged_points},
        "samples": {"iterations": len(plain), "setup": len(setup),
                    "wall_s": [it.wall for it in plain]},
        "attempted": attempted, "failed": failed,
        "problems": [p for it in iterations for p in it.problems][:20],
        "end_to_end": end_to_end,
    }
    if trace:
        layers = [layer_metrics(it.spans, ref) for it in traced]
        record["per_layer"] = {name: statistics.median(v[name] for v in layers)
                               for name, _unit in PER_LAYER}
        record["samples"]["traced_iterations"] = len(traced)
        record["trace_overhead_s"] = (statistics.median(it.wall for it in traced)
                                      - end_to_end["wall_s"])
        record["unpatched"] = sorted({n for it in traced for d in it.spans
                                      for n in d["unpatched"]})
    return record


def report(record: dict) -> list[str]:
    """Readable lines: every metric by name, with its unit and sample count."""
    inputs, samples = record["inputs"], record["samples"]
    lines = [
        f"workload {record['workload']}  seed {record['seed']}  "
        f"(dataset seed {record['dataset_seed']}: m={inputs['m']}, sum_n={inputs['sum_n']}, "
        f"merged points per matrix={inputs['merged_points_per_matrix']} computed)",
    ]
    counts = {"wall_s": samples["iterations"], "cpu_s": samples["iterations"],
              "setup_s": samples["setup"], "peak_rss_mb": samples["iterations"],
              "out_bytes": samples["iterations"]}
    for name, unit in END_TO_END:
        lines.append(f"  {name:<34} {record['end_to_end'][name]:>16.6f} {unit:<6}"
                     f" median of {counts[name]}")
    ratio = record["failed"] / record["attempted"]
    lines.append(f"  {'fail_ratio':<34} {ratio:>16.6f} {'1':<6}"
                 f" {record['failed']} failed of {record['attempted']} attempted")
    for problem in record["problems"]:
        lines.append(f"  FAILED {problem}")
    if "per_layer" in record:
        n = samples["traced_iterations"]
        for name, unit in PER_LAYER:
            note = " (computed)" if name in COMPUTED else ""
            lines.append(f"  {name:<34} {record['per_layer'][name]:>16.6f} {unit:<6}"
                         f" median of {n} traced{note}")
        lines.append(f"  {'tracing overhead':<34} {record['trace_overhead_s']:>16.6f} {'s':<6}"
                     f" traced wall_s minus untraced wall_s")
        if record["unpatched"]:
            lines.append(f"  WARNING not traced: {', '.join(record['unpatched'])}")
    return lines


def result_line(record: dict) -> str:
    names = PER_LAYER if record["trace"] else END_TO_END
    values = record["per_layer"] if record["trace"] else record["end_to_end"]
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in names},
    })


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**32:
        parser.error("--seed must be in [0, 2**32)")
    if not (ROOT / "src" / "leafclust" / "cli.py").is_file():
        print(f"bench: no leafclust sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    record = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    records = WORK_ROOT / "records"
    records.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (records / f"{args.workload}-{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("\n".join(report(record)))
    print("record " + json.dumps(record))
    print(result_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
