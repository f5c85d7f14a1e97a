"""``zrlab.table`` owns the text format of every output file, so it alone
writes files: no other module of ``src/zrlab`` calls ``write_text``,
``write_bytes`` or ``mkdir``, or ``open`` in a write mode.  A call counts
where the parsed source makes it, whatever object it is made on; an
``open`` whose mode is not a string literal counts as a write.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "zrlab"
OWNER = "table.py"
WRITE_CALLS = {"write_text", "write_bytes", "mkdir"}


def _writes(call: ast.Call) -> bool:
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", None)
    if name in WRITE_CALLS:
        return True
    if name != "open":
        return False
    # builtin open(file, mode); Path.open(mode)
    position = 1 if isinstance(func, ast.Name) else 0
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"),
                call.args[position] if len(call.args) > position else None)
    if mode is None:
        return False
    if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
        return True
    return any(flag in mode.value for flag in "wax+")


def _writers(path: Path) -> list[str]:
    """``module: definition`` of every definition in ``path`` that writes."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{owner}.{child.name}" if owner else child.name)
                continue
            if isinstance(child, ast.Call) and _writes(child):
                found.append(f"{path.name}: {owner or '<module>'}")
            visit(child, owner)

    visit(ast.parse(path.read_text(), filename=str(path)), "")
    return found


def test_only_the_table_module_writes_files():
    writers = sorted({w for path in sorted(SRC.glob("*.py"))
                      if path.name != OWNER for w in _writers(path)})
    assert not writers, ("write files through zrlab.table, which owns the "
                         f"output format: {writers}")


def test_the_owner_is_seen_writing():
    # the check would pass vacuously if it could not see a write
    assert _writers(SRC / OWNER)


def test_write_modes():
    def writes(source):
        return _writes(ast.parse(source).body[0].value)

    assert writes("open(p, 'w')") and writes("p.open('a')")
    assert writes("open(p, mode='r+')") and writes("open(p, m)")
    assert writes("p.parent.mkdir()") and writes("p.write_bytes(b)")
    assert not writes("open(p)") and not writes("p.open()")
    assert not writes("open(p, 'rb')") and not writes("p.read_text()")
