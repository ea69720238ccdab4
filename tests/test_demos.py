import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_demo(name: str) -> str:
    """Stdout of one demo script run in a fresh interpreter on this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_hardy_constants_demo():
    out = _run_demo("01_hardy_constants.py")
    # the Coulomb pair V1 = V2 = 1/r has A+ = A- = 1 (printed to 12 digits)
    match = re.search(r"Coulomb pair.*\n\s*A\+ = (\S+)\s+A- = (\S+)", out)
    assert match, out
    assert match.groups() == ("1.000000000000", "1.000000000000")


def test_inequality_checks_demo():
    out = _run_demo("02_inequality_checks.py")
    # the Coulomb pair's supremum in k = 0 and -2 is enclosed between the
    # count's lower bound and U_k = 1, and the lower bound matches the closed
    # form 1/(1 + (pi/L)^2) of the grid's log box to 1e-9
    rows = re.findall(r"channel ([+-]\d+): (\S+) <= sup <= (\S+)", out)
    assert [k for k, _, _ in rows] == ["-2", "+0"], out
    box = float(re.search(r"log box the supremum is (\S+);", out).group(1))
    assert box == pytest.approx(1.0 / (1.0 + (math.pi / math.log(1e15)) ** 2), rel=1e-12)
    for _, lower, upper in rows:
        assert float(lower) == pytest.approx(box, rel=1e-9)
        assert float(lower) <= float(upper) == 1.0


def test_weak_solve_demo():
    out = _run_demo("04_weak_solve.py")
    # the only demo that checks the symmetry of the discrete pairing
    match = re.search(r"worst scaled defect (\S+)", out)
    assert match, out
    assert float(match.group(1)) <= 1e-8


def test_gap_spectrum_demo():
    out = _run_demo("05_gap_spectrum.py")
    # the Coulomb ground level against its printed closed form (10 decimals)
    match = re.search(r"E_0 = (\S+)\s+closed form (\S+)", out)
    assert match, out
    value, exact = map(float, match.groups())
    assert abs(value - exact) <= 1e-9


def test_mollified_delta_demo():
    out = _run_demo("06_mollified_delta.py")
    # the shell lhs c1 R^2 |f(R)|^2 = 4 e^-4 for f = e^-r, c1 = 1, R = 2, at every eps
    lhs = re.findall(r"^\s*\d\.\d\d\s+(\S+)", out, flags=re.M)
    assert len(lhs) == 5, out
    assert set(lhs) == {f"{4.0 * math.exp(-4.0):.6f}"}


def test_every_demo_is_run():
    # a demo that no test runs can go stale unseen
    ran = set(re.findall(r'_run_demo\("([^"]+)"\)', Path(__file__).read_text()))
    assert ran == {path.name for path in (ROOT / "demos").glob("*.py")}
