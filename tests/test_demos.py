import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_hardy_constants_demo():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / "01_hardy_constants.py")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # the Coulomb pair V1 = V2 = 1/r has A+ = A- = 1 (printed to 12 digits)
    match = re.search(r"Coulomb pair.*\n\s*A\+ = (\S+)\s+A- = (\S+)", proc.stdout)
    assert match, proc.stdout
    assert match.groups() == ("1.000000000000", "1.000000000000")


def test_weak_solve_demo():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / "04_weak_solve.py")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # the only demo that checks the symmetry of the discrete pairing
    match = re.search(r"worst scaled defect (\S+)", proc.stdout)
    assert match, proc.stdout
    assert float(match.group(1)) <= 1e-8


def test_gap_spectrum_demo():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / "05_gap_spectrum.py")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # the Coulomb ground level against its printed closed form (10 decimals)
    match = re.search(r"E_0 = (\S+)\s+closed form (\S+)", proc.stdout)
    assert match, proc.stdout
    value, exact = map(float, match.groups())
    assert abs(value - exact) <= 1e-9
