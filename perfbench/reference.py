"""Independent references for the outputs of the lattice operations.

Every function here works from the construction kept by gen.py and from
numpy alone; none calls speclat. Each returns the worst absolute residual
it saw, so the caller can both compare against a threshold and record the
worst residual per layer.
"""

from __future__ import annotations

import numpy as np

from gen import with_spectrum

# residual bound for reconstructions, the default ToleranceConfig.eps_recon
EPS_RECON = 1e-8
# eigenvalues of one element within this width are one breakpoint
LEVEL_TOL = 1e-8


def max_abs(a) -> float:
    a = np.asarray(a)
    return float(np.max(np.abs(a))) if a.size else 0.0


def levels(values) -> np.ndarray:
    """Distinct eigenvalues, as the spectral family's breakpoints."""
    w = np.sort(np.asarray(values, dtype=float))
    keep = np.concatenate([[True], np.diff(w) > LEVEL_TOL])
    return w[keep]


def counts(values, at) -> np.ndarray:
    """Number of eigenvalues at or below each level in `at`."""
    return np.searchsorted(np.sort(values), np.asarray(at) + LEVEL_TOL, side="right")


def spectrum_from_counts(grid, cum) -> np.ndarray:
    """Eigenvalues (with multiplicity) of an element whose counting
    function steps to cum[i] at grid[i]."""
    mult = np.diff(np.concatenate([[0], cum]))
    return np.repeat(grid, mult)


class Reference:
    """Reference eigendata of one block pair (x, z) and its checks.

    Generic pairs are in general position, so the spectral families of the
    join and meet have ranks fixed by counting alone: dim(E^x_l ^ E^z_l) =
    max(0, N_x(l) + N_z(l) - n) and dim(E^x_l v E^z_l) = min(n, N_x(l) +
    N_z(l)). Tied pairs commute, so the references are the simultaneous
    diagonalisation ones: join and meet act by max and min on the common
    eigenbasis, and x precedes z iff it does on every eigenvector.
    """

    def __init__(self, pair: dict):
        self.pair = pair
        self.n = pair["x"].shape[0]
        if pair["kind"] == "tied":
            self.wx, self.vx, self.wz = pair["a"], pair["u"], pair["b"]
        else:
            self.wx, self.vx = pair["wx"], pair["vx"]
            self.wz = pair["wz"]

    def leq_x_z(self) -> bool:
        if self.pair["kind"] == "tied":
            return bool(np.all(self.pair["a"] <= self.pair["b"]))
        # in general position no nonzero E^z_l fits inside a proper E^x_l
        return bool(np.max(self.wx) <= np.min(self.wz))

    def tied_values(self) -> bool:
        w = np.concatenate([self.wx, self.wz])
        return len(levels(w)) < len(w)

    def merged_breakpoints(self) -> int:
        return len(levels(np.concatenate([self.wx, self.wz])))

    def spectrum(self, which: str) -> np.ndarray:
        """Reference eigenvalues of the join or the meet, ascending."""
        if self.pair["kind"] == "tied":
            a, b = self.pair["a"], self.pair["b"]
            return np.sort(np.maximum(a, b) if which == "join" else np.minimum(a, b))
        grid = levels(np.concatenate([self.wx, self.wz]))
        total = counts(self.wx, grid) + counts(self.wz, grid)
        if which == "join":
            cum = np.maximum(0, total - self.n)
        else:
            cum = np.minimum(self.n, total)
        return spectrum_from_counts(grid, cum)

    def _lattice(self, out: np.ndarray, which: str) -> float:
        if self.pair["kind"] == "tied":
            a, b = self.pair["a"], self.pair["b"]
            w = np.maximum(a, b) if which == "join" else np.minimum(a, b)
            return max_abs(out - with_spectrum(self.pair["u"], w))
        got = np.linalg.eigvalsh((out + out.conj().T) / 2.0)
        residual = max_abs(got - self.spectrum(which))
        # the spectral order refines the Loewner order: join above both,
        # meet below both
        for m in (self.pair["x"], self.pair["z"]):
            gap = out - m if which == "join" else m - out
            low = float(np.linalg.eigvalsh((gap + gap.conj().T) / 2.0)[0])
            residual = max(residual, -low)
        return residual

    def join(self, out: np.ndarray) -> float:
        return self._lattice(out, "join")

    def meet(self, out: np.ndarray) -> float:
        return self._lattice(out, "meet")

    def family(self, breakpoints, cumulative) -> float:
        """Breakpoints against the distinct eigenvalues, each cumulative
        projection against the prefix projection of the reference
        eigenbasis, and the reconstruction sum_i l_i (P_i - P_{i-1})."""
        grid = levels(self.wx)
        if len(breakpoints) != len(grid):
            return float(abs(len(breakpoints) - len(grid)))
        residual = max_abs(np.asarray(breakpoints) - grid)
        order = np.argsort(self.wx, kind="stable")
        v, w = self.vx[:, order], np.asarray(self.wx)[order]
        rebuilt = np.zeros((self.n, self.n), dtype=np.complex128)
        prev = np.zeros_like(rebuilt)
        for lam, p, k in zip(grid, cumulative, counts(w, grid)):
            basis = v[:, :k]
            residual = max(residual, max_abs(p - basis @ basis.conj().T))
            rebuilt += lam * (p - prev)
            prev = p
        return max(residual, max_abs(rebuilt - self.pair["x"]))

    def pos_neg(self, plus: np.ndarray, minus: np.ndarray) -> float:
        w, v = np.asarray(self.wx, dtype=float), self.vx
        return max(
            max_abs(plus - with_spectrum(v, np.maximum(w, 0.0))),
            max_abs(minus - with_spectrum(v, np.maximum(-w, 0.0))),
        )


def block_diag(blocks) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=np.complex128)
    at = 0
    for b in blocks:
        d = b.shape[0]
        out[at : at + d, at : at + d] = b
        at += d
    return out
