"""The benchmark wraps playlab functions by name and reads names off the
package; each of them must exist, and the package binds no other name."""

import ast
import importlib
import pkgutil
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def traced_names() -> dict[str, tuple[str, ...]]:
    """``TRACED`` from the tracer's source, read without importing it."""
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED in {TRACER}")


def test_every_traced_function_exists():
    traced = traced_names()
    assert traced
    missing = [
        f"{module}.{name}"
        for module, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"playlab.{module}"), name, None))
    ]
    assert missing == []


def package_reads() -> set[str]:
    """Names perfbench reads off the package: attributes of ``ctx.playlab``,
    of ``self._playlab``, and of the locals bound to either (``pl``)."""
    holders = {"playlab", "_playlab"}
    reads = set()
    for path in sorted(TRACER.parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        aliases = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                targets = [t.elts if isinstance(t, ast.Tuple) else [t] for t in node.targets]
                values = node.value.elts if isinstance(node.value, ast.Tuple) else [node.value]
                for names in targets:
                    aliases |= {
                        t.id for t, v in zip(names, values)
                        if isinstance(t, ast.Name) and isinstance(v, ast.Attribute)
                        and v.attr in holders
                    }
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                owner = node.value
                if (isinstance(owner, ast.Attribute) and owner.attr in holders
                        or isinstance(owner, ast.Name) and owner.id in aliases):
                    reads.add(node.attr)
    return reads


def test_package_binds_only_its_modules_and_what_perfbench_reads():
    import playlab

    modules = {m.name for m in pkgutil.iter_modules(playlab.__path__)}
    reads = package_reads()
    assert {"make_arena", "read_corpus", "cli", "seqmodel"} <= reads
    assert sorted(reads - modules - set(vars(playlab))) == []
    public = {name for name in vars(playlab) if not name.startswith("_")}
    assert public - modules == reads - modules
    assert {"arena", "corpus", "experiment", "fileio", "play", "rng", "seqmodel"} <= public
    assert playlab.__version__
