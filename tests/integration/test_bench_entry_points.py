"""The program entry points the benchmark (``bvfbench/``) relies on.

The benchmark measures BVF from outside: it wraps public callables and
drives a shard's metrics through ``repro.obs``.  A refactor under
``src/`` that renames or re-signs one of them would otherwise surface
only as failing benchmark units; these checks fail the tier-1 suite
instead.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[2] / "bvfbench"
BENCH_SOURCES = sorted(BENCH.glob("*.py"))


@pytest.fixture(scope="module")
def seam(request):
    # seam.py imports its sibling modules by bare name, as run.py does.
    patch = pytest.MonkeyPatch()
    patch.syspath_prepend(str(BENCH))
    request.addfinalizer(patch.undo)
    spec = importlib.util.spec_from_file_location(
        "bvfbench_seam", BENCH / "seam.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_layer_resolves(seam):
    for name, targets in seam.LAYERS.items():
        for owner, attr in targets:
            assert callable(getattr(owner, attr, None)), (
                f"{name}: {owner.__name__}.{attr} is gone"
            )


def test_wrapped_signatures(seam):
    from repro.fuzz.parallel import _run_shard
    from repro.verifier.core import Verifier

    # The iteration wrapper reads (campaign, result, iteration) off the
    # positional arguments; the verify wrapper passes the verifier; the
    # shard stand-in is called with the pool payload.
    params = inspect.signature(seam.Campaign._iteration).parameters
    assert list(params)[:3] == ["self", "result", "iteration"]
    assert list(inspect.signature(Verifier.verify).parameters) == ["self"]
    assert list(inspect.signature(_run_shard).parameters) == ["payload"]


@pytest.mark.parametrize(
    "source", BENCH_SOURCES, ids=[path.name for path in BENCH_SOURCES]
)
def test_imported_program_names_exist(source):
    tree = ast.parse(source.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.module or ""
        ).startswith("repro"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), (
                    f"{source.name}: {node.module}.{alias.name} is gone"
                )


def test_obs_names_used_by_units():
    from repro import obs

    tree = ast.parse((BENCH / "unit.py").read_text())
    used = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "obs"
    }
    assert {"MetricsRegistry", "install", "restore"} <= used
    for name in used:
        assert hasattr(obs, name), f"unit.py: repro.obs.{name} is gone"
    # unit.py installs a bare registry and restores the token it got.
    before = obs.current()
    registry = obs.MetricsRegistry()
    token = obs.install(registry)
    try:
        obs.current().counter("bench.probe")
    finally:
        obs.restore(token)
    assert obs.current() is before
    assert registry.snapshot()["counters"] == {"bench.probe": 1}
