"""The README's Python examples run as written."""
import re
from pathlib import Path

from rough_scl.config import CONFIG_KEYS

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert blocks, "README.md has no python examples"
    for code in blocks:
        exec(compile(code, str(README.name), "exec"), {"__name__": "__readme__"})


def test_config_table_lists_every_key():
    """The configuration table names exactly the keys of `CONFIG_KEYS`, once each."""
    section = README.read_text(encoding="utf-8").split("## Configuration", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1] for line in section.splitlines() if line.startswith("| `")]
    keys = [key for cell in rows for key in re.findall(r"`([^`]+)`", cell.split(" (", 1)[0])]
    assert sorted(keys) == sorted(CONFIG_KEYS)
