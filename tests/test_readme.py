"""The README's library quick start runs as written and prints what it
shows, its exit-code rule covers every stage the CLI names, and it lists
every subcommand."""

import ast
import contextlib
import fnmatch
import io
import re
from pathlib import Path

from leafclust import cli
from leafclust.distances import DistanceTag

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert out.getvalue().splitlines() == ["0.0", "(leaf-1:0,leaf-2:0);"]


def _cli_stage_names() -> set[str]:
    """Every stage name ``cli.py`` passes to ``_stage``, with
    ``distances-{kind.name}`` expanded over the distance kinds."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_stage":
            (arg,) = node.args
            if isinstance(arg, ast.Constant):
                names.add(arg.value)
            else:
                assert ast.unparse(arg) == "f'distances-{kind.name}'"
                names.update(f"distances-{tag.value}" for tag in DistanceTag)
    return names


def _readme_exit_codes() -> dict[str, int]:
    """Stage pattern -> exit code, from the README's exit-code sentence."""
    text = " ".join(README.read_text(encoding="utf-8").split())
    found = re.search(r"a failure in (.+?) stages exits `1`.*?; one in (.+?) exits `2`", text)
    assert found, "README states no exit-code rule"
    return {pattern: code for group, code in zip(found.groups(), (1, 2))
            for pattern in re.findall(r"`([^`]+)`", group)}


def _covers(pattern: str, stage: str) -> bool:
    return any(fnmatch.fnmatchcase(stage, pattern.replace("<kind>", tag.value))
               for tag in DistanceTag)


def test_every_cli_stage_exits_as_the_readme_says():
    stages, codes = _cli_stage_names(), _readme_exit_codes()
    assert {"config", "read-dataset", "write", "cut"} <= stages
    for stage in sorted(stages):
        matched = [code for pattern, code in codes.items() if _covers(pattern, stage)]
        assert len(matched) == 1, f"README documents stage {stage!r} {len(matched)} times"
        assert cli.StageError(stage, "x").code == matched[0], stage
    for pattern in codes:
        assert any(_covers(pattern, stage) for stage in stages), f"no stage {pattern!r}"


def test_readme_lists_every_subcommand():
    text = " ".join(README.read_text(encoding="utf-8").split())
    found = re.search(r"Each pipeline stage is a subcommand \((.+?)\)", text)
    assert found, "README lists no subcommands"
    assert re.findall(r"`([^`]+)`", found[1]) == list(cli._COMMANDS)
