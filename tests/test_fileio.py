"""Every file the package writes goes through ``fileio.write_atomic``."""

import ast
from pathlib import Path

import playlab

PACKAGE = Path(playlab.__file__).resolve().parent


def _write_sites(source: str) -> list[int]:
    """Line numbers of ``open(...)`` calls in a write, append, exclusive or
    update mode (or a mode the code computes) and of ``.write_text(...)`` /
    ``.write_bytes(...)`` calls."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("write_text", "write_bytes"):
            sites.append(node.lineno)
        elif name == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), None
            )
            if mode is None:
                continue
            if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax+"):
                sites.append(node.lineno)
    return sites


def test_only_fileio_writes_files():
    found = {
        path.name: lines
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "fileio.py"
        and (lines := _write_sites(path.read_text(encoding="utf-8")))
    }
    assert found == {}, f"write through fileio.write_atomic instead: {found}"


def test_scanner_sees_each_kind_of_write():
    source = (
        'open(p, "w")\nopen(p, mode="ab")\nopen(p, "r+")\nopen(p, m)\n'
        'path.write_text(s)\npath.write_bytes(b)\n'
        'open(p)\nopen(p, "rb")\nopen(p, "r", encoding="utf-8")\nos.replace(a, b)\n'
    )
    assert sorted(_write_sites(source)) == [1, 2, 3, 4, 5, 6]
