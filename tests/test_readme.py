"""The README's Python examples run as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks, "README.md has no python examples"
    for code in blocks:
        exec(compile(code, str(README.name), "exec"), {"__name__": "__readme__"})
