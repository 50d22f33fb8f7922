"""Cross-interpreter check, standard library only: run it under each Python.

    python3.12 tools/crosspy.py

Run from the root of a source checkout; growthlab is imported from `src/`.
Two checks, one line each, and exit code 1 if either fails:

- the CLI's JSON writer (`tables._json_text`) writes each payload of a fixed
  set exactly as json.dumps(payload, indent=2) does on this interpreter;
- every command of `PINNED_OUTPUTS` in tests/test_cli.py (read without
  importing the tests) prints the stdout whose sha256 is pinned there.
"""

import ast
import contextlib
import hashlib
import io
import json
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from growthlab import cli, tables  # noqa: E402

PAYLOADS = [
    {},
    [],
    "",
    0,
    -(2**70),
    2**64,
    True,
    False,
    None,
    [[], {}, [[]], {"": {}}],
    ['"', "\\", "\n\t\x00\x1f\x7f", "é", " ", "\U0001f600", "\ud800"],
    [1, -2, 3**50],
    [1, "1", True, None, [2, ["3"]], {"k": [False]}],
    {"quote\"key": {"nested": [{"a": 1, "b": ["x", "y"]}, []]}, "é": None},
]


def _pinned() -> dict[str, str]:
    path = ROOT / "tests" / "test_cli.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    (node,) = [
        node for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["PINNED_OUTPUTS"]
    ]
    return ast.literal_eval(node.value)


def _stdout(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def main() -> int:
    print(f"Python {platform.python_version()} ({sys.executable})")
    wrong = [p for p in PAYLOADS if tables._json_text(p) != json.dumps(p, indent=2)]
    print(f"{'ok  ' if not wrong else 'FAIL'} json writer: {len(PAYLOADS) - len(wrong)}/{len(PAYLOADS)} payloads")
    pinned = _pinned()
    differ = []
    for command, digest in pinned.items():
        code, out = _stdout(command.split())
        if code != 0 or hashlib.sha256(out.encode()).hexdigest() != digest:
            differ.append(command)
    print(f"{'ok  ' if not differ else 'FAIL'} pinned outputs: {len(pinned) - len(differ)}/{len(pinned)} commands")
    for command in differ:
        print(f"     differs: {command}")
    return 1 if wrong or differ else 0


if __name__ == "__main__":
    sys.exit(main())
