"""Uniform grids over continuous state variables, with interpolation.

Constructing a tractable MDP from a continuous encounter model requires
discretizing the state space and projecting off-grid successor states back
onto grid points — the paper (Section IV) singles out this "sampling and
interpolation" step as a source of inaccuracy that validation must
confront.  This module implements that machinery:

- :class:`UniformAxis` — one evenly spaced axis with clipping semantics,
  which brackets a continuous value between two of its points;
- :class:`Grid` — a product of axes supporting flat indexing and
  multilinear interpolation of values defined on the grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class UniformAxis:
    """An evenly spaced axis ``[low, low+step, ..., high]``.

    Parameters
    ----------
    name:
        Variable name, used in diagnostics.
    low, high:
        Inclusive endpoints (``high`` must exceed ``low``).
    num:
        Number of grid points (at least 2).
    """

    name: str
    low: float
    high: float
    num: int

    def __post_init__(self) -> None:
        if self.num < 2:
            raise ValueError(f"axis {self.name!r} needs >= 2 points, got {self.num}")
        if not self.high > self.low:
            raise ValueError(
                f"axis {self.name!r} needs high > low, got [{self.low}, {self.high}]"
            )
        # bracket() places a value by arithmetic and corrects the guess
        # by at most one point.  The placement is monotone in the value,
        # so that correction finds the exact bracket of every value if
        # it places each grid point within one index of its own.
        points = self.points
        placed = (points - points[0]) / self.step
        if not (
            np.all(points[1:] > points[:-1])
            and np.all(np.abs(placed - np.arange(self.num)) < 1.0)
        ):
            raise ValueError(
                f"axis {self.name!r} is too fine for float64: its points "
                "are not distinct, evenly placed values"
            )

    @cached_property
    def points(self) -> np.ndarray:
        """The grid points as a 1-D float array (computed once).

        Cached because axis points sit on interpolation hot paths (the
        megabatch decision phase locates every lane on every axis each
        decision); the axis is frozen, so the points never change.
        """
        return np.linspace(self.low, self.high, self.num)

    @property
    def step(self) -> float:
        """Spacing between adjacent grid points."""
        return (self.high - self.low) / (self.num - 1)

    def clip(self, values: np.ndarray) -> np.ndarray:
        """Clip *values* to the axis range."""
        return np.clip(values, self.low, self.high)

    def index_of(self, value: float, tol: float = 1e-9) -> int:
        """Index of the grid point equal to *value* (within *tol*).

        Raises ``ValueError`` when *value* is not a grid point; use
        :meth:`bracket` for off-grid values.
        """
        idx = int(round((value - self.low) / self.step))
        if idx < 0 or idx >= self.num or abs(self.points[idx] - value) > tol:
            raise ValueError(f"{value} is not a grid point of axis {self.name!r}")
        return idx

    def bracket(self, values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Locate *values* between two grid points.

        Returns ``(lo, w_hi)``: ``lo`` is the largest index whose point
        does not exceed the value, at most ``num - 2``, so the value
        lies between points ``lo`` and ``lo + 1``; ``w_hi`` is the
        weight on point ``lo + 1`` (the weight on ``lo`` is ``1 -
        w_hi``).  Values outside the axis are clipped to its ends, as
        a logic table saturates at its grid boundary.

        ``lo`` is placed by arithmetic, then compared against the
        points, which gives the bracket ``np.searchsorted(points,
        value, side="right") - 1`` does, clipped to ``[0, num - 2]``.
        """
        points = self.points
        vals = np.clip(values, points[0], points[-1])
        lo = self._lower(vals)
        lo_points = points[lo]
        return lo, (vals - lo_points) / (points[lo + 1] - lo_points)

    def lower(self, values: np.ndarray) -> np.ndarray:
        """The ``lo`` of :meth:`bracket`, without computing its weight."""
        points = self.points
        return self._lower(np.clip(values, points[0], points[-1]))

    def _lower(self, vals: np.ndarray) -> np.ndarray:
        # vals are clipped, so vals - points[0] >= 0 and truncation is
        # floor.  fmin puts a NaN in the last bracket, where searchsorted
        # sorts it.
        points = self.points
        guess = np.fmin((vals - points[0]) / self.step, self.num - 2)
        guess = guess.astype(np.int64)
        lo = guess - (points[guess] > vals)
        lo += (points[guess + 1] <= vals) & (guess < self.num - 2)
        return lo


class Grid:
    """A product of :class:`UniformAxis` objects.

    Values defined on the grid are stored flat (C order over the axes in
    construction order); :meth:`interpolate` evaluates such a value array
    at arbitrary continuous points by multilinear interpolation, and
    :meth:`corners` precomputes the corner indices/weights corner-major
    so the same interpolation can be replayed cheaply (the hot paths of
    the logic-table solve over sampled successor states and of the
    logic-table lookup).  :meth:`interp_table` is the same data
    point-major.
    """

    def __init__(self, axes: Sequence[UniformAxis]):
        if not axes:
            raise ValueError("Grid needs at least one axis")
        self.axes: Tuple[UniformAxis, ...] = tuple(axes)
        self.shape: Tuple[int, ...] = tuple(axis.num for axis in self.axes)
        self.size: int = int(np.prod(self.shape))
        self._strides = np.array(
            [int(np.prod(self.shape[i + 1:])) for i in range(len(self.shape))],
            dtype=np.int64,
        )
        # Flat-index offset of every cell corner relative to the "all
        # lo" corner: bit `dim` of corner c selects that axis's hi end,
        # which is always exactly one grid step (one stride) above lo.
        corners = np.arange(1 << self.ndim, dtype=np.int64)
        self._corner_offsets = (
            ((corners[:, None] >> np.arange(self.ndim)) & 1) * self._strides
        ).sum(axis=1)

    @property
    def ndim(self) -> int:
        """Number of axes."""
        return len(self.axes)

    def axis(self, name: str) -> UniformAxis:
        """Return the axis called *name*."""
        for ax in self.axes:
            if ax.name == name:
                return ax
        raise KeyError(f"no axis named {name!r}")

    def flat_index(self, multi_index: Sequence[np.ndarray]) -> np.ndarray:
        """Convert per-axis indices to flat indices (C order)."""
        if len(multi_index) != self.ndim:
            raise ValueError(
                f"expected {self.ndim} index arrays, got {len(multi_index)}"
            )
        flat = np.zeros_like(np.asarray(multi_index[0], dtype=np.int64))
        for stride, idx in zip(self._strides, multi_index):
            flat = flat + stride * np.asarray(idx, dtype=np.int64)
        return flat

    def multi_index(self, flat: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Convert flat indices back to per-axis indices."""
        return np.unravel_index(np.asarray(flat, dtype=np.int64), self.shape)

    def points(self) -> np.ndarray:
        """All grid points as an array of shape ``(size, ndim)``."""
        mesh = np.meshgrid(*(ax.points for ax in self.axes), indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=-1)

    def _query_points(self, coords: np.ndarray) -> np.ndarray:
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        if coords.shape[1] != self.ndim:
            raise ValueError(
                f"coords must have {self.ndim} columns, got {coords.shape[1]}"
            )
        return coords

    def cells(self, coords: np.ndarray) -> np.ndarray:
        """Flat index of each point's cell, named by its "all lo" corner.

        The same placement as :meth:`corners` (whose row 0 it equals),
        without the weights.  Takes *coords* as :meth:`corners` does and
        returns shape ``(n,)``; a cell's base is never on an axis's last
        point.
        """
        coords = self._query_points(coords)
        base = np.zeros(coords.shape[0], dtype=np.int64)
        for dim, ax in enumerate(self.axes):
            base += self._strides[dim] * ax.lower(coords[:, dim])
        return base

    def corners(self, coords: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Multilinear interpolation corners and weights, corner-major.

        Parameters
        ----------
        coords:
            Array of shape ``(n, ndim)`` of continuous query points
            (clipped per-axis).  A transposed ``(ndim, n)`` array
            passed as its ``.T`` view reads each axis contiguously.

        Returns
        -------
        (indices, weights):
            Both of shape ``(2**ndim, n)``: row ``c`` holds corner
            ``c``'s flat grid index and barycentric weight for every
            point; bit ``dim`` of ``c`` selects that axis's upper
            point.  The weights sum to one over the corners.
        """
        coords = self._query_points(coords)
        n = coords.shape[0]
        # The upper point is always lo + 1, so a corner's flat index is
        # the point's "all lo" index plus that corner's fixed offset.
        base = np.zeros(n, dtype=np.int64)
        weights = np.ones((1, n))
        for dim, ax in enumerate(self.axes):
            lo, w_hi = ax.bracket(coords[:, dim])
            base += self._strides[dim] * lo
            # Grow the corner axis one dim at a time, new bit slowest:
            # corner c's weight is the product of its per-axis weights
            # taken in axis order (axis 0 first).
            pair = np.stack([1.0 - w_hi, w_hi])  # (2, n)
            weights = (pair[:, None, :] * weights[None, :, :]).reshape(
                2 << dim, n
            )
        return self._corner_offsets[:, None] + base, weights

    def interp_table(
        self, coords: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Precompute multilinear interpolation corners and weights.

        Parameters
        ----------
        coords:
            Array of shape ``(n, ndim)`` of continuous query points
            (clipped per-axis).

        Returns
        -------
        (indices, weights):
            :meth:`corners` point-major: C-contiguous arrays of shape
            ``(n, 2**ndim)``, ``indices`` flat grid indices and
            ``weights`` the matching barycentric weights, summing to
            one along the last axis.
        """
        indices, weights = self.corners(coords)
        return np.ascontiguousarray(indices.T), np.ascontiguousarray(weights.T)

    def interpolate(self, values: np.ndarray, coords: np.ndarray) -> np.ndarray:
        """Evaluate grid-defined *values* at continuous *coords*.

        ``values`` may be flat (``(size,)``) or shaped (``self.shape``).
        Returns an array of shape ``(n,)``.
        """
        flat_values = np.asarray(values, dtype=float).reshape(-1)
        if flat_values.size != self.size:
            raise ValueError(
                f"values has {flat_values.size} entries, grid has {self.size}"
            )
        indices, weights = self.interp_table(coords)
        return np.sum(flat_values[indices] * weights, axis=1)

    def __repr__(self) -> str:
        axes = ", ".join(
            f"{ax.name}[{ax.low}:{ax.high}:{ax.num}]" for ax in self.axes
        )
        return f"Grid({axes})"
