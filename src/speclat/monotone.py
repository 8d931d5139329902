"""Strictly increasing scalar bijections used as the scalar part of
canonical order isomorphisms.

Two closed-form variants are supported: piecewise-linear maps with affine
tails (dense enough to carry any recovered scalar action at grid
resolution) and exact power maps t -> sign(t) |t|^p. Each variant is closed
under inversion only; no composition is offered.
"""

from __future__ import annotations

import numpy as np

from .errors import NotMonotoneError


class MonotoneBijection:
    """A strictly increasing bijection of the real line.

    Use the constructors :meth:`piecewise_linear`, :meth:`power` or
    :meth:`identity` rather than ``__init__``.
    """

    def __init__(self, kind, knots=None, values=None, left_slope=None, right_slope=None, exponent=None):
        self.kind = kind
        if kind == "pl":
            self.knots = np.asarray(knots, dtype=float).ravel()
            self.values = np.asarray(values, dtype=float).ravel()
            if len(self.knots) == 0 or len(self.knots) != len(self.values):
                raise NotMonotoneError("knots and values must be nonempty and equal-length")
            if np.any(np.diff(self.knots) <= 0) or np.any(np.diff(self.values) <= 0):
                raise NotMonotoneError("knots and values must be strictly increasing")
            self.left_slope = float(left_slope)
            self.right_slope = float(right_slope)
            if not (self.left_slope > 0 and self.right_slope > 0):
                raise NotMonotoneError("tail slopes must be strictly positive")
            self.exponent = None
        elif kind == "power":
            self.exponent = float(exponent)
            if not self.exponent > 0:
                raise NotMonotoneError("power exponent must be strictly positive")
            self.knots = self.values = None
            self.left_slope = self.right_slope = None
        else:
            raise NotMonotoneError(f"unknown kind {kind!r}")

    @classmethod
    def piecewise_linear(cls, knots, values, left_slope=None, right_slope=None):
        """PL bijection through (knots, values) with affine tails.

        Tail slopes default to the slopes of the outermost segments (or 1.0
        for a single knot).
        """
        knots = np.asarray(knots, dtype=float).ravel()
        values = np.asarray(values, dtype=float).ravel()
        if left_slope is None:
            left_slope = (
                (values[1] - values[0]) / (knots[1] - knots[0])
                if len(knots) > 1 and knots[1] > knots[0]
                else 1.0
            )
        if right_slope is None:
            right_slope = (
                (values[-1] - values[-2]) / (knots[-1] - knots[-2])
                if len(knots) > 1 and knots[-1] > knots[-2]
                else 1.0
            )
        return cls("pl", knots=knots, values=values, left_slope=left_slope, right_slope=right_slope)

    @classmethod
    def power(cls, exponent):
        """t -> sign(t) |t|^exponent; exact inverse is the 1/exponent power."""
        return cls("power", exponent=exponent)

    @classmethod
    def identity(cls):
        return cls.power(1.0)

    def __call__(self, t):
        """f at a scalar (returned as a float) or elementwise on an array.

        A piecewise-linear map interpolates between its knots and runs
        along its affine tails outside them. When every entry lies within
        the knots, the tail passes are skipped: inside the knots they
        return the interpolated values unchanged. A power that overflows
        returns +-inf, with no RuntimeWarning.
        """
        scalar = np.isscalar(t)
        t = np.asarray(t, dtype=float)
        if self.kind == "power":
            with np.errstate(over="ignore"):
                y = np.sign(t) * np.abs(t) ** self.exponent
        else:
            knots, values = self.knots, self.values
            # asarray: a 0-d input stays a 0-d array, as the tail passes
            # return it. Inputs outside the knots interpolate to NaN, so one
            # NaN test finds them; a NaN input is NaN on either path. A 0-d
            # input is compared directly, which costs less than that test
            y = np.asarray(np.interp(t, knots, values, left=np.nan, right=np.nan))
            if t.ndim == 0:
                inside = knots[0] <= float(t) <= knots[-1]
            else:
                inside = not np.isnan(y).any()
            if not inside:
                y = np.where(t < knots[0], values[0] + self.left_slope * (t - knots[0]), y)
                y = np.where(t > knots[-1], values[-1] + self.right_slope * (t - knots[-1]), y)
        return float(y) if scalar else y

    def inverse(self) -> "MonotoneBijection":
        if self.kind == "power":
            return MonotoneBijection.power(1.0 / self.exponent)
        return MonotoneBijection(
            "pl",
            knots=self.values,
            values=self.knots,
            left_slope=1.0 / self.left_slope,
            right_slope=1.0 / self.right_slope,
        )

    def __repr__(self) -> str:
        if self.kind == "power":
            return f"MonotoneBijection.power({self.exponent:g})"
        return f"MonotoneBijection.piecewise_linear(<{len(self.knots)} knots>)"
