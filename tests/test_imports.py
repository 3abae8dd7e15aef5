"""What each entry point loads: pricing and sweeps need neither SciPy nor oracles."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import credbond

SRC = str(Path(credbond.__file__).resolve().parent.parent)
# the README config's records, for the pricing run
PRICE_CONFIG = {
    "model": {"theta": 1.0, "mu": 0.05, "s_r": 0.01, "s_V": 0.2, "rho": -0.3,
              "barrier_b": 0.6, "recovery_r": 0.4},
    "bond": {"maturity_T": 2.0},
    "option": {"expiry_T1": 1.0, "exercise_e": 0.9},
    "state": {"r": 0.05, "v": 1.0, "t": 0.0},
}


def _fresh(code: str):
    """Run code in a new interpreter that imports this credbond; its JSON output."""
    prelude = f"import json, sys\nsys.path.insert(0, {SRC!r})\n"
    done = subprocess.run([sys.executable, "-c", prelude + code],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _heavy(modules):
    return [m for m in modules
            if m == "scipy" or m.startswith("scipy.") or m == "credbond.oracles"]


@pytest.mark.parametrize("module", ["credbond", "credbond.cli"])
def test_import_loads_neither_scipy_nor_the_oracles(module):
    loaded = _fresh(f"import {module}\nprint(json.dumps(sorted(sys.modules)))")
    assert module in loaded
    assert _heavy(loaded) == []


def test_pricing_every_instrument_loads_no_scipy(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(PRICE_CONFIG))
    loaded = _fresh(
        "from credbond import cli\n"
        f"cfg = cli.load_config({str(path)!r})\n"
        "for instrument in cli.INSTRUMENTS:\n"
        "    cli.price_instrument(cfg, instrument)\n"
        "print(json.dumps(sorted(sys.modules)))")
    assert _heavy(loaded) == []


def test_sweeping_every_instrument_and_axis_loads_no_scipy(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(PRICE_CONFIG))
    loaded = _fresh(
        "from credbond import cli\n"
        f"cfg = cli.load_config({str(path)!r})\n"
        "for instrument in cli.INSTRUMENTS:\n"
        "    for axis in cli.SWEEP_AXES:\n"
        "        cli.sweep_rows(cfg, instrument, axis, 0.5, 1.5, 7)\n"
        "print(json.dumps(sorted(sys.modules)))")
    assert _heavy(loaded) == []


def test_verify_loads_neither_scipy_interpolate_nor_linalg(tmp_path):
    # every suite at small sizes: the FD oracle takes scipy.fft's DST and no
    # spline or linear solver of SciPy's
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**PRICE_CONFIG, "verify": {
        "paths": 64, "steps_per_year": 50, "grid_nx": 40, "grid_nt": 40}}))
    loaded = _fresh(
        "from credbond import cli\n"
        f"cfg = cli.load_config({str(path)!r})\n"
        "for suite in ('fd', 'mc-forward', 'mc-spot', 'parity'):\n"
        "    cli.run_verify(cfg, suite)\n"
        "print(json.dumps(sorted(sys.modules)))")
    assert "credbond.oracles" in loaded and "scipy.fft" in loaded
    assert [m for m in loaded
            if m.split(".")[:2] in (["scipy", "interpolate"],
                                    ["scipy", "linalg"])] == []


def test_oracle_names_load_the_oracles_on_access():
    found = _fresh(
        "import credbond\n"
        "before = 'credbond.oracles' in sys.modules\n"
        "solver = credbond.cn_solve\n"
        "print(json.dumps([before, solver is credbond.oracles.cn_solve]))")
    assert found == [False, True]


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from credbond import *", namespace)
    assert len(credbond.__all__) == 20
    for name in credbond.__all__:
        assert namespace[name] is getattr(credbond, name)
    assert namespace["mc_spot"] is credbond.oracles.mc_spot


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        credbond.no_such_name
    assert not hasattr(credbond, "no_such_name")
