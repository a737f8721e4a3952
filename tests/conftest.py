import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qplab.contfrac import expand
from qplab.udspace import Modulus


@pytest.fixture(scope="session")
def golden_cf():
    return expand("golden", 40)


@pytest.fixture(scope="session")
def moduli():
    return [Modulus("analytic"), Modulus("gevrey", 0.7), Modulus("power", 3.0)]


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


def random_real_series(rng, K, amp=1.0, decay=1.0):
    from qplab.udspace import FourierSeries

    c = rng.normal(size=2 * K + 1) * np.exp(-decay * np.abs(np.arange(-K, K + 1))) + 0j
    return FourierSeries(amp * (c + np.conj(c[::-1])) / 2.0, True)


def ud_potential():
    """Seeded real series of degree 40, |Vhat_k| ~ e^{-|k|^0.5}, l1 norm 1."""
    from qplab.udspace import FourierSeries

    rng = np.random.default_rng(0)
    k = np.arange(-40, 41)
    c = (rng.normal(size=k.size) + 1j * rng.normal(size=k.size)) * np.exp(-np.abs(k) ** 0.5)
    c = (c + np.conj(c[::-1])) / 2.0
    return FourierSeries(c / np.sum(np.abs(c)), True)


def fresh_modules(code: str, names) -> list:
    """The `names` found in sys.modules after `code` runs in a fresh interpreter."""
    probe = f"{code}\nimport sys; print(sorted(set({sorted(names)!r}) & set(sys.modules)))"
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(src)})
    return ast.literal_eval(out.stdout.strip().splitlines()[-1])
