"""Seeded input generation for the benchmark, in numpy alone.

Nothing here imports speclat: the program receives only the arrays and
scalar-map specifications made here, and the benchmark keeps the
construction (eigenbases, spectra, permutations, shifts) as the reference
that outputs are checked against.
"""

from __future__ import annotations

import numpy as np

CONES = ("sa", "pos", "eff")

# spectra of generic elements are drawn from these intervals
CONE_RANGE = {"sa": (-2.0, 2.0), "pos": (0.0, 2.0), "eff": (0.0, 1.0)}

# tied elements take their eigenvalues from these few levels, so repeated
# eigenvalues inside one element and shared ones across a pair are common
CONE_LEVELS = {
    "sa": (-1.5, -0.75, 0.0, 0.75, 1.5),
    "pos": (0.0, 0.5, 1.0, 1.5, 2.0),
    "eff": (0.0, 0.25, 0.5, 0.75, 1.0),
}

# generic spectra keep every gap above this, so eigenvalue clustering never
# has a borderline decision and the references stay exact
MIN_GAP = 1e-4

# interior knots of effect-cone scalar maps sit on multiples of 1/EFF_GRID,
# which the 129-point recovery grid samples exactly
EFF_GRID = 8


def round_order(count: int, rng: np.random.Generator) -> list[int]:
    """A seeded rotation of the bit-reversal order of range(count).

    Request specs are listed by increasing cost; in this order every prefix
    of a round samples the cost range evenly, so a run that stops inside a
    round still sees the round's cost mix.
    """
    bits = max(1, (count - 1).bit_length())
    rev = [int(format(i, f"0{bits}b")[::-1], 2) for i in range(1 << bits)]
    order = [i for i in rev if i < count]
    shift = int(rng.integers(count))
    return order[shift:] + order[:shift]


def unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def with_spectrum(u: np.ndarray, w) -> np.ndarray:
    m = (u * np.asarray(w, dtype=float)) @ u.conj().T
    return (m + m.conj().T) / 2.0


def spread_values(rng: np.random.Generator, lo: float, hi: float, count: int) -> np.ndarray:
    """Sorted uniform draws on [lo, hi] with every gap at least MIN_GAP."""
    while True:
        w = np.sort(rng.uniform(lo, hi, count))
        if count < 2 or np.min(np.diff(w)) >= MIN_GAP:
            return w


def generic_element(rng, n: int, cone: str) -> dict:
    """An element with distinct eigenvalues in a Haar-random eigenbasis."""
    lo, hi = CONE_RANGE[cone]
    w = spread_values(rng, lo, hi, n)
    u = unitary(rng, n)
    return {"m": with_spectrum(u, w), "w": w, "v": u}


def generic_pair(rng, n: int, cone: str) -> dict:
    """Independent eigenbases; the union of both spectra keeps MIN_GAP, so
    the pair is in general position with no shared eigenvalue."""
    lo, hi = CONE_RANGE[cone]
    values = spread_values(rng, lo, hi, 2 * n)
    pick = rng.permutation(2 * n)
    wx, wz = np.sort(values[pick[:n]]), np.sort(values[pick[n:]])
    ux, uz = unitary(rng, n), unitary(rng, n)
    return {
        "kind": "generic",
        "x": with_spectrum(ux, wx), "z": with_spectrum(uz, wz),
        "wx": wx, "vx": ux, "wz": wz, "vz": uz,
    }


def tied_pair(rng, n: int, cone: str, comparable: bool) -> dict:
    """Commuting pair sharing the eigenbasis u, with eigenvalues on a few
    levels. When comparable, z's level is never below x's on any common
    eigenvector, so x precedes z."""
    levels = np.asarray(CONE_LEVELS[cone])
    ia = rng.integers(0, len(levels), n)
    step = rng.integers(0, 2, n) if comparable else rng.integers(-1, 2, n)
    ib = np.clip(ia + step, 0, len(levels) - 1)
    u = unitary(rng, n)
    a, b = levels[ia], levels[ib]
    return {
        "kind": "tied",
        "x": with_spectrum(u, a), "z": with_spectrum(u, b),
        "u": u, "a": a, "b": b,
    }


def increasing(rng, lo: float, hi: float, count: int) -> np.ndarray:
    gaps = rng.uniform(0.2, 1.0, count - 1)
    inner = np.concatenate([[0.0], np.cumsum(gaps)])
    return lo + (hi - lo) * inner / inner[-1]


def scalar_map(rng, cone: str, fix_zero: bool) -> dict:
    """Piecewise-linear bijection of the cone's scalar domain, as knots,
    values and tail slopes. Effect maps fix 0 and 1 with interior knots on
    the 1/EFF_GRID lattice; positive maps fix 0; self-adjoint maps fix 0
    when asked, so an added central shift is recovered exactly."""
    if cone == "eff":
        interior = np.sort(rng.choice(np.arange(1, EFF_GRID), size=3, replace=False)) / EFF_GRID
        knots = np.concatenate([[0.0], interior, [1.0]])
        values = increasing(rng, 0.0, 1.0, len(knots))
        return {"knots": knots, "values": values, "left": None, "right": None}
    if cone == "pos":
        knots = increasing(rng, 0.0, rng.uniform(1.0, 3.0), 5)
        values = increasing(rng, 0.0, rng.uniform(1.0, 3.0), 5)
        return {"knots": knots, "values": values, "left": None, "right": rng.uniform(0.5, 2.0)}
    if fix_zero:
        neg_k = increasing(rng, -rng.uniform(1.0, 3.0), -0.05, 2)
        pos_k = increasing(rng, 0.05, rng.uniform(1.0, 3.0), 2)
        neg_v = increasing(rng, -rng.uniform(1.0, 3.0), -0.05, 2)
        pos_v = increasing(rng, 0.05, rng.uniform(1.0, 3.0), 2)
        knots = np.concatenate([neg_k, [0.0], pos_k])
        values = np.concatenate([neg_v, [0.0], pos_v])
    else:
        knots = increasing(rng, -rng.uniform(1.0, 3.0), rng.uniform(1.0, 3.0), 5)
        values = increasing(rng, -rng.uniform(1.0, 3.0), rng.uniform(1.0, 3.0), 5)
    return {"knots": knots, "values": values,
            "left": rng.uniform(0.5, 2.0), "right": rng.uniform(0.5, 2.0)}


def eval_map(spec: dict, t) -> np.ndarray:
    """Evaluate a scalar-map spec, with the tail-slope defaults of
    MonotoneBijection.piecewise_linear."""
    k, v = spec["knots"], spec["values"]
    left = spec["left"] if spec["left"] is not None else (v[1] - v[0]) / (k[1] - k[0])
    right = spec["right"] if spec["right"] is not None else (v[-1] - v[-2]) / (k[-1] - k[-2])
    t = np.asarray(t, dtype=float)
    y = np.interp(t, k, v)
    y = np.where(t < k[0], v[0] + left * (t - k[0]), y)
    return np.where(t > k[-1], v[-1] + right * (t - k[-1]), y)


def shear(rng, n: int) -> np.ndarray:
    """Identity plus a strictly upper-triangular part with one sizable
    entry: invertible and far from any multiple of a unitary."""
    upper = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), k=1)
    if n > 1:
        upper[0, 1] += 1.0 + 0.5j
    return np.eye(n, dtype=np.complex128) + upper


def block_iso(rng, n: int, cone: str, kind: str, fix_zero: bool) -> dict:
    """One factor's canonical isomorphism x -> Theta_tau(f(x)); kind is
    'unitary' or 'shear' (tau induced by T) or 'jordan' (x -> u x u*,
    transposed first when 'transpose')."""
    spec = {"f": scalar_map(rng, cone, fix_zero), "kind": kind}
    if kind == "jordan":
        spec["u"] = unitary(rng, n)
        spec["transpose"] = bool(rng.integers(2))
    else:
        spec["T"] = unitary(rng, n) if kind == "unitary" else shear(rng, n)
    return spec


def dim_respecting_pi(rng, dims) -> tuple[int, ...]:
    """Random slot permutation that only swaps slots of equal dimension."""
    dims = np.asarray(dims)
    pi = np.arange(len(dims))
    for d in sorted(set(dims.tolist())):
        slots = np.nonzero(dims == d)[0]
        pi[slots] = rng.permutation(slots)
    return tuple(int(j) for j in pi)


def direct_sum_iso(rng, dims, cone: str, kind: str, fix_zero: bool) -> dict:
    """Blockwise isomorphism: codomain slot k is fed from domain slot pi[k]."""
    pi = dim_respecting_pi(rng, dims)
    return {
        "dims": tuple(dims), "cone": cone, "pi": pi,
        "blocks": [block_iso(rng, d, cone, kind, fix_zero) for d in dims],
    }


def apply_block_iso(spec: dict, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Reference image of the element v diag(w) v* (distinct eigenvalues)."""
    fw = eval_map(spec["f"], w)
    if spec["kind"] == "jordan":
        body = with_spectrum(v, fw)
        if spec["transpose"]:
            body = body.T
        out = spec["u"] @ body @ spec["u"].conj().T
        return (out + out.conj().T) / 2.0
    q, _ = np.linalg.qr(spec["T"] @ v)
    return with_spectrum(q, fw)
