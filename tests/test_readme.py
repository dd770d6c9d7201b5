"""The README's "Library use" example runs against the library as it is."""

import contextlib
import io
import re
from pathlib import Path

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
