"""Rules the library source keeps."""

import ast
from pathlib import Path

import growthlab

SOURCES = sorted(Path(growthlab.__file__).parent.glob("*.py"))


def test_src_has_no_assert():
    # invariants raise InternalCheckError, which `python -O` does not strip
    assert SOURCES
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []
