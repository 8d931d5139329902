"""Seeded draws have one path: a stack per slot, and a count of 1 for a
single element. numpy has stacked np.linalg.qr since 1.22, so the numpy
1.24 floor runs the same path."""

import numpy as np
import pytest

from speclat.directsum import BlockProfile
from speclat.linalg import eigh, spectral_sum
from speclat.order import cone_domain
from speclat.sampling import random_ds_element, random_ds_elements, rng_from

CONES = ("eff", "pos", "sa")


def _reference_block(rng, n, cone):
    """One block drawn as the one-matrix constructions draw it: a sorted
    uniform spectrum, the real and then the imaginary Ginibre part, their
    QR with R's diagonal made positive, and spectral_sum; or (g + g*) / 2
    on the self-adjoint cone."""
    lo = cone_domain(cone)[0]
    values = np.sort(rng.uniform(0.0, 1.0, n)) if np.isfinite(lo) else None
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if values is None:
        return (g + g.conj().T) / 2.0
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return spectral_sum(q * (d / np.abs(d)), values)


@pytest.mark.parametrize("cone", CONES)
def test_one_element_is_the_sequential_draw_bit_for_bit(cone):
    """random_ds_element is the stacked draw with a count of 1: it yields
    the bits of the one-matrix constructions and leaves the generator
    where they leave it."""
    for seed in range(20):
        dims = tuple(int(d) for d in rng_from(1000 + seed).integers(1, 7, 3))
        drawn, ref = rng_from(seed), rng_from(seed)
        x = random_ds_element(drawn, BlockProfile(dims), cone)
        for block, d in zip(x.blocks, dims):
            assert block.tobytes() == _reference_block(ref, d, cone).tobytes()
        assert drawn.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("cone", CONES)
def test_a_stacked_draw_lies_in_its_cone_and_is_exactly_hermitian(cone):
    """Elements of a stacked draw are built with validate=False, so each
    block must equal its conjugate transpose bit for bit, and its spectrum
    must lie in the cone's scalar interval."""
    lo, hi = cone_domain(cone)
    profile = BlockProfile((1, 2, 5))
    xs = random_ds_elements(rng_from(11), profile, 7, cone)
    assert len(xs) == 7
    for x in xs:
        for block, d in zip(x.blocks, profile.dims):
            assert block.shape == (d, d)
            assert np.array_equal(block, block.conj().T)
            values = eigh(block).values
            assert values[0] >= lo - 1e-12 and values[-1] <= hi + 1e-12
    # the samples differ from one another
    assert len({x.blocks[2].tobytes() for x in xs}) == 7


def test_a_stacked_draw_takes_each_slot_in_one_call():
    """Per slot, the uniforms of all samples are drawn first, then the
    real and the imaginary Ginibre parts of all samples: sample i's block
    is the one-matrix construction on the i-th slices."""
    count, n = 4, 3
    xs = random_ds_elements(rng_from(5), BlockProfile((n,)), count, "eff")
    rng = rng_from(5)
    values = np.sort(rng.uniform(0.0, 1.0, (count, n)), axis=1)
    g = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    for i, x in enumerate(xs):
        q, r = np.linalg.qr(g[i])
        d = np.diag(r)
        expected = spectral_sum(q * (d / np.abs(d)), values[i])
        assert np.max(np.abs(x.blocks[0] - expected)) <= 1e-14
