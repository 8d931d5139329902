import sys

import numpy as np
import pytest

from speclat import linalg


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def spectra():
    """spectra(rng, n) yields generic, exactly tied, near-tied (inside
    eps_eig) and chained (steps inside eps_eig, total span beyond it)
    spectra of length n."""

    def draw(rng, n):
        yield rng.standard_normal(n)
        yield np.sort(rng.integers(0, 3, n).astype(float))
        yield np.sort(rng.integers(0, 3, n) + rng.uniform(-3e-9, 3e-9, n))
        yield np.sort(rng.integers(0, 2, n) + np.arange(n) * rng.uniform(2e-9, 9e-9))

    return draw


@pytest.fixture(autouse=True)
def empty_eigh_memo():
    """Each test starts with an empty eigh memo, so that a count of solves
    sees its own test's matrices only."""
    linalg._solve.cache_clear()


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(fn) rebinds fn, wherever a loaded speclat module or
    numpy.linalg holds it, to a wrapper that records each call's positional
    arguments, and returns the list of records."""

    def install(fn):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return fn(*args, **kwargs)

        owners = [m for n, m in sys.modules.items() if n == "speclat" or n.startswith("speclat.")]
        for owner in owners + [np.linalg]:
            for attr, obj in list(vars(owner).items()):
                if obj is fn:
                    monkeypatch.setattr(owner, attr, counting)
        return calls

    return install


def pytest_configure(config):
    np.set_printoptions(precision=6, suppress=True)
