"""The bench trace's wrap targets still exist and are still called.

The bench (perfbench/worker.py) times each engine layer by replacing module
attributes that quadmate looks up at call time.  A target that is renamed,
or a call that stops going through the module global, would leave that
layer's metric reading 0 with no test failing; these tests catch both.
The worker is parsed, not imported.
"""

import ast
import importlib
from pathlib import Path

import pytest

from quadmate import engine
from quadmate.angles import Angle
from quadmate.cli import main
from quadmate.engine import IterateOptions, iterate

WORKER = Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
# wrap targets that the package dropped on purpose; the bench reports each
# one as unmeasured until its wrap goes.  combinatorics imported
# same_landing only to be wrapped, and never called it, so its counter
# read 0 before the import went; lamination's same_landing was called by
# the tests alone, which now keep it as their pairwise oracle
DROPPED = {("quadmate.combinatorics", "same_landing"), ("quadmate.lamination", "same_landing")}


def _constants(tree: ast.Module) -> dict:
    """Module-level names bound to literals."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                try:
                    out[target.id] = ast.literal_eval(node.value)
                except ValueError:
                    pass
    return out


def _replace_targets(tree: ast.Module, constants: dict) -> set[tuple[str, str]]:
    """The literal (owner, attribute) targets of ``tracer.replace`` calls.

    An owner given by the variable of an enclosing ``for`` loop over a
    literal, or over a module-level literal, stands for each of its values;
    the targets taken from ``SPANS`` are checked through ``SPANS``.
    """
    found = set()

    def visit(node, loops):
        if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
            it = node.iter
            values = None
            if isinstance(it, ast.Name) and it.id in constants:
                values = constants[it.id]
            else:
                try:
                    values = ast.literal_eval(it)
                except ValueError:
                    pass
            if values is not None:
                loops = {**loops, node.target.id: values}
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "replace"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "tracer"
        ):
            owner, attr = node.args[0], node.args[1]
            if isinstance(attr, ast.Constant):
                if isinstance(owner, ast.Constant):
                    found.add((owner.value, attr.value))
                elif isinstance(owner, ast.Name) and owner.id in loops:
                    found.update((o, attr.value) for o in loops[owner.id])
        for child in ast.iter_child_nodes(node):
            visit(child, loops)

    visit(tree, {})
    return found


def _resolve(owner: str, attr: str):
    module, _, cls = owner.partition(":")
    target = importlib.import_module(module)
    if cls:
        target = getattr(target, cls)
    return getattr(target, attr, None)


@pytest.fixture(scope="module")
def worker():
    tree = ast.parse(WORKER.read_text())
    return tree, _constants(tree)


def test_span_targets_are_callables(worker):
    tree, constants = worker
    spans = constants["SPANS"]
    assert len(spans) >= 10
    for module, attr, _ in spans:
        assert callable(_resolve(module, attr)), f"{module}.{attr}"


def test_replace_targets_are_callables(worker):
    tree, constants = worker
    targets = _replace_targets(tree, constants)
    assert ("quadmate.engine", "_lift_arc") in targets
    assert ("quadmate.cli", "iterate") in targets
    assert ("quadmate.ratmap:NormalizedQuadratic", "preimages") in targets
    for owner, attr in targets - DROPPED:
        assert callable(_resolve(owner, attr)), f"{owner}.{attr}"
    for owner, attr in DROPPED:
        assert _resolve(owner, attr) is None, f"{owner}.{attr} is back: drop it from DROPPED"


def test_engine_targets_are_called_through_the_module(worker, monkeypatch):
    # every engine span target, and the lift, is looked up at call time
    _, constants = worker
    names = {attr for module, attr, _ in constants["SPANS"] if module == "quadmate.engine"}
    names |= {"prune", "_lift_arc"}
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return call

    for name in names:
        monkeypatch.setattr(engine, name, counted(name, getattr(engine, name)))
    opts = IterateOptions(max_iters=6, tol=0.0, samples_per_arc=8, budget=128)
    report = iterate(Angle(1, 4), Angle(1, 8), opts)
    assert report.status == "max-iterations"
    assert calls["prune"] == 6
    assert {name for name, n in calls.items() if n == 0} == set()


def test_cli_targets_are_called_through_the_module(tmp_path, capsys, monkeypatch):
    import quadmate.cli as cli

    calls = {"dump_curve": 0, "format_report": 0, "render_views": 0}
    for name in calls:
        fn = getattr(cli, name)

        def call(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(cli, name, call)
    code = main(["mate", "1/4", "1/8", "--iters", "2", "--tol", "0", "--samples", "8",
                 "--budget", "128", "--dump", str(tmp_path), "--render"])
    assert code == 0
    # one dump per record, the final curve's among them
    assert calls == {"dump_curve": 3, "format_report": 1, "render_views": 1}
