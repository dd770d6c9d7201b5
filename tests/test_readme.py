"""The README's "Library use" example runs against the library as it is,
and its config-key table lists the config schema."""

import contextlib
import io
import re
from pathlib import Path

from quantmimo import harness

_README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs():
    section = _README.read_text().split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, f"{_README.name} (Library use)", "exec"), {})
    # one symbol index per detector, of the 16 QPSK vectors of two antennas
    decisions = [int(k) for k in out.getvalue().split()]
    assert len(decisions) == 3 and all(0 <= k < 16 for k in decisions)


def test_config_table_lists_exactly_the_schema_keys():
    section = _README.read_text().split("\n### Config files\n", 1)[1]
    section = section.split("\n#", 1)[0]
    # the first column of each table row names its keys
    cells = [line.split("|")[1] for line in section.splitlines()
             if line.startswith("| `")]
    keys = re.findall(r"`([^`]+)`", "".join(cells))
    assert sorted(keys) == sorted(harness._SCHEMA)
