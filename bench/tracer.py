"""Run one leafclust CLI command in-process, with a span around each layer call.

Usage: python3 tracer.py SPANS_JSON RUN_ID CLI_ARG...

The CLI is imported and called exactly as the console script does, but the
public functions it calls in each layer are first replaced by wrappers that
record a span (name, parent span, start, end, work counts).  Spans stay in
memory and are written to SPANS_JSON when the command ends.  Nothing under
``src/`` is modified; a name the CLI no longer uses is reported as unpatched.
"""

import sys
import time

_t0 = time.perf_counter()
import leafclust.cli as cli  # noqa: E402  (the import is what cli.import_s times)

IMPORT_S = time.perf_counter() - _t0

import json  # noqa: E402
import os  # noqa: E402

from leafclust import dataio, svgplot  # noqa: E402


class Tracer:
    """Collects spans in memory; wrappers push and pop a parent stack."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.unpatched: list[str] = []
        self._stack: list[int] = []

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Replace ``owner.attr`` by a traced call.

        ``name`` is a span name or a function of the call's arguments;
        ``count(args, result)`` returns the work counts of one call.
        """
        fn = getattr(owner, attr, None)
        if fn is None:
            self.unpatched.append(f"{owner.__name__}.{attr}")
            return

        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "name": name if isinstance(name, str) else name(args),
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id,
                "counts": {},
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span["counts"] = count(args, result)
            return result

        setattr(owner, attr, traced)


def _size(path) -> int:
    return os.path.getsize(path)


def install(tracer: Tracer) -> None:
    """Wrap every call the CLI makes into the dataio, density, distances,
    hcluster and svgplot layers."""
    for attr in ("read_dataset", "read_densities", "read_matrix", "read_dendrogram"):
        tracer.wrap(dataio, attr, "dataio.read",
                    lambda a, r: {"dataio.bytes_read": _size(a[0])})
    for attr, path_pos in (("write_dataset", 1), ("write_matrix", 1), ("write_dendrogram", 1),
                           ("write_clusters", 3), ("write_densities", 1)):
        tracer.wrap(dataio, attr, "dataio.write",
                    lambda a, r, i=path_pos: {"dataio.bytes_written": _size(a[i])})
    tracer.wrap(cli, "normalize_leaf", "density.normalize",
                lambda a, r: {"density.leaves": 1, "density.intervals": r.n_intervals})
    tracer.wrap(cli, "distance_matrix", lambda a: f"distances.{a[2].name}",
                lambda a, r: {"distances.pairs": r.size * (r.size - 1) // 2})
    tracer.wrap(cli, "agglomerate",
                lambda a: f"hcluster.agglomerate_{getattr(a[1], 'value', a[1])}",
                lambda a, r: {"hcluster.merges": len(r.merges)})
    tracer.wrap(cli, "cut", "hcluster.cut")
    tracer.wrap(cli, "to_newick", "hcluster.newick")
    tracer.wrap(svgplot, "plot_densities", "svgplot.densities",
                lambda a, r: {"svgplot.bytes": _size(a[1]),
                              "svgplot.points": sum(2 * d.heights.size for d in a[0])})
    tracer.wrap(svgplot, "plot_leaves", "svgplot.leaves",
                lambda a, r: {"svgplot.bytes": _size(a[1]),
                              "svgplot.points": sum(len(o.points) for o in a[0])})
    tracer.wrap(svgplot, "plot_dendrogram", "svgplot.dendrogram",
                lambda a, r: {"svgplot.bytes": _size(a[1]),
                              "svgplot.points": 4 * len(a[0].merges)})
    tracer.wrap(cli, "main", "cli")


def main(argv: list[str]) -> int:
    spans_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(run_id)
    install(tracer)
    code = cli.main(cli_args)
    with open(spans_path, "w") as fh:
        json.dump({"run": run_id, "import_s": IMPORT_S, "exit": code,
                   "unpatched": tracer.unpatched, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
