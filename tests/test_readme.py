"""The README's "Library use" example runs against the library as it is,
its config-key table lists the config schema, every library name it cites
exists, and it stays a statement of contracts, not of measurements."""

import contextlib
import importlib
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


# the README states contracts; measurements stay in CHANGES.md
_WORD_LIMIT = 2500

_MODULES = ("core", "training", "detection", "sic", "baselines", "analysis",
            "harness", "cli")


def test_readme_stays_under_its_word_limit():
    # whitespace-separated tokens: at least as many as `wc -w` counts, which
    # skips tokens of symbols alone such as a lone `×`
    assert len(_README.read_text().split()) < _WORD_LIMIT


def test_readme_names_resolve_in_the_package():
    # a backticked `module.name[.attr](args)` must name what the package
    # defines, so a rename cannot leave the README stale; file names such as
    # `harness.py` are not library names
    pattern = re.compile(rf"({'|'.join(_MODULES)})\.([A-Za-z_][\w.]*)")
    names = set()
    for span in re.findall(r"`([^`\n]+)`", _README.read_text()):
        match = pattern.match(span)
        if match and match.group(2) != "py":
            names.add(match.group(0).rstrip("."))
    assert names
    missing = []
    for name in sorted(names):
        module, *path = name.split(".")
        obj = importlib.import_module(f"quantmimo.{module}")
        for attr in path:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    assert not missing, missing
