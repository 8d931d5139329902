"""No result depends on the eigenbasis LAPACK picks.

An element enters the spectral order only through its spectral family, so
the phase of an eigenvector and the basis inside an eigenspace must not
show in any output. np.linalg.eigh is replaced by a wrapper that
multiplies every column by a random unit phase and rotates each group of
equal eigenvalues by a random unitary; every lattice operation, family,
part, iso image and atom decomposition must agree with the unpatched run.
"""

import numpy as np

from speclat import linalg
from speclat.directsum import BlockProfile, DirectSumElement, ds_atom_scalar_decompose
from speclat.family import family_of
from speclat.isos import FactorCanonicalIso
from speclat.order import pos_neg_parts, spec_join, spec_leq, spec_meet
from speclat.sampling import (
    random_in_cone,
    random_monotone_bijection,
    random_projection,
    random_projection_isomorphism,
    random_unitary,
    random_with_spectrum,
)
from speclat.validation import max_abs

TIE = 1e-12


def _scrambled_eigh(rng):
    eigh = np.linalg.eigh

    def scrambled(a):
        values, vectors = eigh(a)
        vectors = np.array(vectors)
        n = len(values)
        starts = [0] + [i for i in range(1, n) if values[i] - values[i - 1] > TIE]
        for lo, hi in zip(starts, starts[1:] + [n]):
            vectors[:, lo:hi] = vectors[:, lo:hi] @ random_unitary(rng, hi - lo)
        return values, vectors * np.exp(2j * np.pi * rng.uniform(size=n))

    return scrambled


def _cases(rng):
    """(cone, x, y, atom): generic and tied x, y either generic or the
    comparable x v z, and a scaled rank-one projection on pos and eff."""
    for n in range(1, 7):
        for cone in ("sa", "pos", "eff"):
            levels = [0.0, 0.5, 1.0] if cone != "sa" else [-1.0, 0.0, 1.0]
            for rep in range(16):
                if rep % 2:
                    x = random_with_spectrum(rng, np.sort(rng.choice(levels, n)))
                else:
                    x = random_in_cone(rng, n, cone)
                y = random_in_cone(rng, n, cone)
                if rep % 4 >= 2:
                    y = spec_join([x, y], cone)
                atom = None
                if cone != "sa":
                    atom = rng.uniform(0.1, 1.0) * random_projection(rng, n, rank=1)
                yield cone, x, y, atom


def _results(cone, x, y, atom, isos):
    """Every output under test: (arrays, order verdicts, atom parts)."""
    join, meet = spec_join([x, y], cone), spec_meet([x, y], cone)
    arrays = [join, meet, *family_of(x).cumulative, *pos_neg_parts(x)]
    arrays += [iso.apply(x) for iso in isos]
    verdicts = [
        spec_leq(x, y), spec_leq(y, x), spec_leq(x, join), spec_leq(meet, y), spec_leq(join, meet)
    ]
    # x = 0 admits no decomposition and is refused either way
    zs = [] if atom is None else [z for z in (x, atom) if max_abs(z) > 1e-9]
    profile = BlockProfile((len(x),))
    parts = [ds_atom_scalar_decompose(DirectSumElement(profile, [z]), cone) for z in zs]
    return arrays, verdicts, parts


def test_no_result_reads_the_eigenbasis(rng, monkeypatch):
    cases = 0
    worst = 0.0
    atoms = 0
    for cone, x, y, atom in _cases(rng):
        n = x.shape[0]
        f = random_monotone_bijection(rng, cone)
        isos = [
            FactorCanonicalIso(f, random_projection_isomorphism(rng, n, kind), cone)
            for kind in ("unitary", "shear", "antilinear")
        ]
        arrays, verdicts, parts = _results(cone, x, y, atom, isos)
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "eigh", _scrambled_eigh(rng))
            # past eigh's memo, so that every eigensystem is scrambled anew
            # and none is the unpatched run's
            patch.setattr(linalg, "_solve", linalg._solve.__wrapped__)
            # and past each iso's replay of its last image, with new isos
            fresh = [FactorCanonicalIso(iso.f, iso.tau, iso.cone) for iso in isos]
            s_arrays, s_verdicts, s_parts = _results(cone, x, y, atom, fresh)
        assert len(s_arrays) == len(arrays)
        worst = max([worst] + [max_abs(a - b) for a, b in zip(arrays, s_arrays)])
        assert s_verdicts == verdicts
        for part, s_part in zip(parts, s_parts):
            assert (part is None) == (s_part is None)
            if part is not None:
                atoms += 1
                assert abs(part[0] - s_part[0]) <= 1e-12
                worst = max(worst, max_abs(part[2] - s_part[2]))
        cases += 1
    assert cases == 288 and atoms >= 192
    assert worst <= 1e-12


def test_scrambled_eigh_moves_the_basis(rng):
    """The wrapper does change the basis, phases and tied columns alike, so
    the test above compares two different eigenbases."""
    x = random_with_spectrum(rng, [0.0, 0.0, 1.0])
    values, vectors = np.linalg.eigh(x)
    s_values, s_vectors = _scrambled_eigh(rng)(x)
    assert s_values.tobytes() == values.tobytes()
    assert max_abs(np.abs(s_vectors[:, :2]) - np.abs(vectors[:, :2])) > 1e-3
    assert max_abs(s_vectors[:, 2] - vectors[:, 2]) > 1e-3
    assert max_abs(np.abs(s_vectors[:, 2]) - np.abs(vectors[:, 2])) <= 1e-15
