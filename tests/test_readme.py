"""README's code runs against the library as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_tour_runs(capsys):
    # the one python block under "## Library quick tour", run as written
    section = README.read_text(encoding="utf-8").split("## Library quick tour\n", 1)[1].split("\n## ", 1)[0]
    [block] = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    exec(compile(block, "README.md (Library quick tour)", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].startswith("violated ") and lines[3] == "certified"
