"""The experiments' product checks still run under ``python -O``.

``-O`` strips ``assert`` statements, so a product check written as one
reports an unverified product as verified.  Each check runs here in a
``python -O`` interpreter with a wrong product (or, for the broadcast
study, a short delivery) patched in, and must raise.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: patch wrong results into every experiment that verifies one, call
#: each, and print one "<name>: raised" or "<name>: silent" line
SCRIPT = r"""
import sys

from repro.algorithms import registry
from repro.experiments import architectures, broadcast_study, scaling

if not sys.flags.optimize:
    sys.exit("expected an interpreter started with -O")


def wrong_product(run):
    def patched(*args, **kwargs):
        res = run(*args, **kwargs)
        res.C = res.C + 1.0
        return res
    return patched


def short_delivery(run):
    def patched(*args, **kwargs):
        res = run(*args, **kwargs)
        res.returns = [v - 1 for v in res.returns]
        return res
    return patched


registry.run = wrong_product(registry.run)
architectures.run_cannon = wrong_product(architectures.run_cannon)
broadcast_study.run_spmd = short_delivery(broadcast_study.run_spmd)

checks = {
    "speedup_curve": lambda: scaling.speedup_curve("cannon", n=8, p_values=(4,)),
    "isoefficiency_in_simulation": lambda: scaling.isoefficiency_in_simulation(
        "cannon", p_values=(4,)
    ),
    "scaled_speedup": lambda: scaling.scaled_speedup("cannon", n0=2, p_values=(4,)),
    "architectures": lambda: architectures.run(n=8, p=4),
    "broadcast_study": lambda: broadcast_study.measure_broadcasts(4, (8,)),
}
for name, check in checks.items():
    try:
        check()
    except AssertionError as exc:
        print(f"{name}: raised: {exc}")
    else:
        print(f"{name}: silent")
"""


def test_product_checks_raise_under_python_O():
    env = dict(os.environ, REPRO_NO_DISK_CACHE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    lines = proc.stdout.splitlines()
    assert len(lines) == 5, proc.stdout
    assert all(": raised: " in line for line in lines), proc.stdout
