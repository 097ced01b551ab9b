"""What the benchmark under perfbench/ uses of the package.

The benchmark replays its workloads through library names, clears
`make_cpm`'s cache between ops, and runs each workload's command line
through the CLI.  A change that drops any of these fails here, in the
tier-1 suite, and not only in the benchmark step: a name or an option
the benchmark uses goes only after the benchmark stops using it.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from configcohom import cli, make_cpm

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _package_imports(path):
    """(module, name) for each name path imports from configcohom;
    name is None for a plain `import configcohom...`."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "configcohom":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "configcohom")


@pytest.mark.parametrize("script", ["probe.py", "tracing.py"])
def test_benchmark_imports_resolve(script):
    imports = list(_package_imports(BENCH / script))
    assert imports
    for module, name in imports:
        if name is not None:
            assert hasattr(importlib.import_module(module), name), (module, name)
        else:
            importlib.import_module(module)


def test_make_cpm_keeps_its_cache_hooks():
    # the replay builds a fresh ring through __wrapped__ and clears the cache
    assert make_cpm.__wrapped__(2).label == "CP^2"
    assert make_cpm.__wrapped__(2) is not make_cpm.__wrapped__(2)
    assert callable(make_cpm.cache_clear)


def test_benchmark_workloads_parse(tmp_path, monkeypatch):
    # run.py imports without side effects: no file written, no run started
    monkeypatch.chdir(tmp_path)
    monkeypatch.syspath_prepend(str(BENCH))
    had_host = "host" in sys.modules
    spec = importlib.util.spec_from_file_location("perfbench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(run)
    finally:
        if not had_host:
            sys.modules.pop("host", None)
    assert list(tmp_path.iterdir()) == []
    assert run.WORKLOADS
    for name, workload in run.WORKLOADS.items():
        args = cli.build_parser().parse_args(workload["argv"])
        assert args.command == workload["argv"][0], name
        assert callable(args.runner), name
