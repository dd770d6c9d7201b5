"""The experiment scripts at a tiny size: each loads its shipped config, so
its rows for that config's setting are the CLI's CSV on the config with the
same overrides."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from quantmimo.cli import main

ROOT = Path(__file__).resolve().parents[1]

# script, its config, the CLI command that runs the config, the overrides
# both get (as config keys), and the row of the script's CSV where the
# config's setting starts
_SCRIPTS = {
    "run_bound_check.py": (
        "bound_validation.cfg", "bound",
        dict(channel_count=2, vectors_per_channel=200), 0),
    "run_detector_comparison.py": (
        "detector_comparison.cfg", "ser",
        dict(channel_count=2, vectors_per_channel=40), 0),
    # after the 4 + 6 rows of the 2 x 2 and 2 x 4 setups
    "run_dmin_ccdf.py": (
        "dmin_ccdf.cfg", "ccdf", dict(channel_count=300), 10),
    # after the 7 SNR points x 2 detectors of the one-bit run
    "run_multibit_downlink.py": (
        "multibit_downlink_b2.cfg", "ser",
        dict(channel_count=2, vectors_per_channel=40), 14),
    # after the 3 SNR points of the full search
    "run_sic_tradeoff.py": (
        "sic_tradeoff_nt1_5.cfg", "ser",
        dict(channel_count=1, vectors_per_channel=20), 3),
}
_FLAGS = {"channel_count": "--channels", "vectors_per_channel": "--vectors"}
_SEED = "7"


@pytest.mark.parametrize("script", sorted(_SCRIPTS))
def test_script_rows_equal_cli_csv_of_its_config(tmp_path, script):
    config, command, overrides, first = _SCRIPTS[script]
    text = (ROOT / "configs" / config).read_text()
    for key, value in overrides.items():
        text, found = re.subn(
            rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        assert found == 1
    overridden = tmp_path / config
    overridden.write_text(text)
    cli_csv = tmp_path / "cli.csv"
    assert main([command, "--config", str(overridden), "--seed", _SEED,
                 "--out", str(cli_csv)]) == 0

    script_csv = tmp_path / "script.csv"
    args = ["--seed", _SEED, "--out", str(script_csv)]
    for key, value in overrides.items():
        args += [_FLAGS[key], str(value)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                   env=env, cwd=tmp_path, check=True, timeout=120,
                   stdout=subprocess.DEVNULL)

    header, *rows = cli_csv.read_text().splitlines()
    script_header, *script_rows = script_csv.read_text().splitlines()
    assert script_header == header
    assert script_rows[first:first + len(rows)] == rows
