"""Cell-centered fields on the rectangle and the discrete operators on them.

Discretization notes, shared by everything downstream:

* values live at cell centers x_i = (i + 1/2) h, so the grid never places a
  point on the boundary;
* zero-flux boundaries are realized by reflected ghost cells (ghost value
  equals the adjacent interior value), which makes boundary face differences
  vanish identically;
* the five-point Laplacian built this way is symmetric, sums to zero against
  the constant, and has the shifted cosine modes cos(k pi x / Lx) as exact
  eigenvectors with eigenvalue -(2/h^2)(1 - cos(pi k h / Lx)) per axis.

Reductions sum pairwise (numpy) in a fixed array order, so they are bitwise
reproducible, and a Field takes its (min, max) pair, which checks read, once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import NonFiniteField

if TYPE_CHECKING:  # model builds initial data on this grid, so imports it
    from .model import DomainSpec


@dataclass(frozen=True)
class Field:
    """Immutable scalar field sampled at cell centers, shape (Nx, Ny).

    Construction freezes the given array in place (writeable flag cleared);
    pass a copy if the caller needs to keep mutating its buffer.
    """

    values: np.ndarray
    domain: DomainSpec

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != tuple(self.domain.cells):
            raise ValueError(
                f"field shape {values.shape} does not match domain cells {self.domain.cells}"
            )
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def full(cls, dom: DomainSpec, value: float) -> "Field":
        return cls(np.full(dom.cells, float(value)), dom)

    @property
    def h(self) -> float:
        return self.domain.h

    @cached_property
    def extrema(self) -> tuple[float, float]:
        """(min, max) of the frozen values, taken once; finite exactly when the field is."""
        return float(self.values.min()), float(self.values.max())


def require_finite(field: Field, what: str = "field") -> None:
    if not all(map(math.isfinite, field.extrema)):
        raise NonFiniteField(f"{what} contains NaN or Inf")


# The _kernels below skip the scans of their input; integrate wraps _integral
# with its check. _integral, _lp_integral and _grad_sum check their sums for
# overflow.
def _finite(total: float, what: str) -> float:
    if not math.isfinite(total):
        raise NonFiniteField(f"{what} is not finite: {total}")
    return total


def _integral(values: np.ndarray, h: float) -> float:
    return _finite(float(values.sum()) * h * h, "integral")


def integrate(field: Field) -> float:
    """Midpoint quadrature: h^2 * sum of cell values."""
    require_finite(field)
    return _integral(field.values, field.h)


def _lp_integral(values: np.ndarray, p: float, h: float, work: np.ndarray | None = None) -> float:
    """Integral of |f|^p (no 1/p root; below p = 1 its 1/p power is a quasi-norm)
    for p > 0, the powers formed in `work`, a float64 array of values' shape
    (a fresh one when omitted)."""
    if not p > 0.0:
        raise ValueError(f"the integral of |f|^p needs p > 0, got {p}")
    if p == 2.0:
        powers = np.multiply(values, values, out=work)
    else:
        powers = np.abs(values, out=work)
        if p != 1.0:
            np.power(powers, p, out=powers)
    return _finite(float(powers.sum()) * h * h, f"integral of |f|^{p}")


def _grad_sum(v: np.ndarray, work: np.ndarray | None = None) -> float:
    """Integral of |grad f|^2: each interior face gives (diff/h)^2 h^2 = diff^2.
    The differences along each axis in turn are written into a contiguous
    view of `work`, a float64 array of v's size (a fresh one when omitted),
    and squared there, so each sum runs over the layout of its own array."""
    flat = np.empty(v.size) if work is None else work.reshape(-1)
    total = 0.0
    for right, left in ((v[1:, :], v[:-1, :]), (v[:, 1:], v[:, :-1])):
        diff = np.subtract(right, left, out=flat[: right.size].reshape(right.shape))
        total += float(np.multiply(diff, diff, out=diff).sum())
    return _finite(total, "gradient energy")


def write_field_csv(field: Field, path) -> None:
    """Snapshot format: header x,y,value then one row per cell, row-major in
    (x, y), 17 significant digits.

    The bytes are those of np.savetxt(fmt="%.17g", delimiter=",") on the
    (x, y, value) table. The file is streamed one x-row at a time: the
    coordinate strings are formatted once, and each row's values go through
    a single %-format, so no whole-file string is ever built.
    """
    x, y = field.domain.cell_centers()
    # Joined with the row's x string in between, these pieces give
    # "x,y0,%.17g\nx,y1,%.17g\n...": one format slot per value.
    pieces = [""] + [",%.17g,%%.17g\n" % yj for yj in y.tolist()]
    with open(path, "w") as fh:
        fh.write("x,y,value\n")
        for xi, row in zip(x.tolist(), field.values):
            fh.write(("%.17g" % xi).join(pieces) % tuple(row.tolist()))


def read_field_csv(path, dom: DomainSpec) -> Field:
    """Read a snapshot written by write_field_csv back onto `dom`.

    The row count must match the domain, and every row's (x, y) must agree
    with the cell centers taken row-major, to 1e-9 of the longer side.
    """
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    nx, ny = dom.cells
    if table.shape[0] != nx * ny or table.shape[1] != 3:
        raise ValueError(
            f"snapshot {path!r} has shape {table.shape}, expected ({nx * ny}, 3) for {dom.cells}"
        )
    x, y = dom.cell_centers()
    centers = np.column_stack((np.repeat(x, ny), np.tile(y, nx)))
    if not np.all(np.abs(table[:, :2] - centers) <= 1e-9 * max(dom.lengths)):
        raise ValueError(f"snapshot {path!r} coordinates do not match the domain cell centers")
    return Field(table[:, 2].reshape(nx, ny), dom)
