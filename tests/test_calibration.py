"""Smoke test of the symbolic re-derivation of the evolution coefficients.

The script needs sympy, which is not a dependency of the package, and
takes about 2 s: it checks its 200 seeded samples as one batch.
"""
import re
import runpy
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "calibrate_coefficients.py"


def test_derivation_matches_oracle_and_package(capsys):
    pytest.importorskip("sympy")
    runpy.run_path(str(SCRIPT), run_name="__main__")
    out = capsys.readouterr().out
    assert "trace preservation: exact" in out
    assert "hermiticity (rho32 table = conj rho23 table): exact" in out
    devs = dict(re.findall(r"max deviation(?:, | )(A-first|B-first|vs package corrected mode)"
                           r":\s+(\S+)", out))
    assert set(devs) == {"A-first", "B-first", "vs package corrected mode"}
    # the derivation is the A-first model, which the package implements
    assert float(devs["A-first"]) < 1e-15
    assert float(devs["vs package corrected mode"]) < 1e-15
    assert float(devs["B-first"]) > 0.1
