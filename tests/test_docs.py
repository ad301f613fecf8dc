"""The README's library example runs and its CLI lines parse, every name a
layer module exports resolves (the benchmark tracer looks each one up by
name), and so does every package name the benchmark's workloads call."""

import functools
import importlib
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from polyatree.simharness import cli

ROOT = Path(__file__).resolve().parents[1]
LAYERS = ("segmentation", "hbeta", "posterior", "predictive", "conformal", "encoding")


def test_readme_python_example_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)
    assert len(blocks) == 1
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", blocks[0]], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_readme_cli_lines_parse():
    # parsing only: a line naming a removed option or command exits with status 2
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.DOTALL)
    lines = [shlex.split(line, comments=True) for block in blocks for line in block.splitlines()]
    argvs = [argv[1:] for argv in lines if argv[:1] == ["polyatree"]]
    parser = cli.build_parser()
    for argv in argvs:
        parser.parse_args(argv)
    assert sorted({argv[0] for argv in argvs}) == sorted(cli._COMMANDS)


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_exports_resolve_in_their_module(layer):
    # a name the tracer finds but that is defined elsewhere is never timed
    mod = importlib.import_module(f"polyatree.{layer}")
    assert [name for name in mod.__all__ if getattr(getattr(mod, name, None), "__module__", None) != mod.__name__] == []


def test_benchmark_workload_names_resolve():
    # the workloads call the package as `pt`; a name they use that is gone fails the benchmark run
    import polyatree as pt

    names = set(re.findall(r"\bpt\.(\w+(?:\.\w+)*)", (ROOT / "bench" / "workloads.py").read_text()))
    assert len(names) >= 20 and "posterior.LogGammaTables" in names

    def resolve(name):
        return functools.reduce(lambda obj, part: getattr(obj, part, None), name.split("."), pt)

    assert [name for name in sorted(names) if resolve(name) is None] == []
