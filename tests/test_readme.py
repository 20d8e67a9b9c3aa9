"""The README's library example runs as written."""
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    [code] = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    return code


def test_library_use_block_runs():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(library_use_block(), str(README), "exec"), {})
    assert "| SVM | " in out.getvalue()
