"""Degree-of-freedom containers for cell and facet data.

Cell data is stored cell-major in curve order with one contiguous block per
cell.  Facet data has one type, FacetProjection: one record per cell face
holding a cell's signed value and normal-derivative traces, also
cell-major, so a traversal over a cell range writes one contiguous block.
There is one trace store for the whole mesh, shared by all subdomains, so
the interface exchange has nothing to copy: it only checks that both
records of every interface facet were written.  The stages sweep keeps a
second store of the same type, which holds for every cell face the record
across it (Mesh.opposite_records); the other traversals gather a block's
records across into a reused buffer, and the residual traversal averages
them there with the block's own records into its fluxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# side and quantity indices of the projection field
MINUS, PLUS = 0, 1
VAL, DER = 0, 1


class FieldError(RuntimeError):
    pass


def fmt_float(x):
    """17 significant digits, enough to round-trip a double."""
    return format(float(x), ".17g")


def norm(x, kind="l2"):
    data = x.data if hasattr(x, "data") else x
    data = np.asarray(data).reshape(-1)
    if kind == "l2":
        return float(np.sqrt(np.sum(data * data)))
    if kind == "linf":
        return float(np.max(np.abs(data))) if data.size else 0.0
    raise ValueError(f"unknown norm kind {kind!r}")


def norm_parts(x):
    """(sum of squares, max |x|) of one block of data, the partial norms
    combine_norms adds up; max |x| without an |x| temporary."""
    flat = x.reshape(-1)
    return np.dot(flat, flat), max(flat.max(), -flat.min())


def combine_norms(parts):
    """(l2, linf) norms from per-block norm_parts keyed by the blocks'
    first rows, added one by one in block order, so the result does not
    depend on the order the blocks ran in.  For one block, the bits of
    np.linalg.norm and np.max(np.abs(x)) (both square roots are correctly
    rounded); a NaN maximum wins, and the outer abs keeps the bits for
    all-zero data and NaN."""
    order = sorted(parts)
    sq = parts[order[0]][0]
    for lo in order[1:]:
        sq += parts[lo][0]
    top = max((parts[lo][1] for lo in order), key=lambda m: (m != m, m))
    return math.sqrt(sq), abs(float(top))


@dataclass
class CellField:
    """(ncells, nloc) array, one contiguous row per cell in curve order."""

    data: np.ndarray

    @classmethod
    def zeros(cls, ncells, nloc):
        return cls(np.zeros((ncells, nloc)))

    def copy(self):
        return CellField(self.data.copy())


@dataclass
class FacetProjection:
    """Signed traces per cell face: data[cell, axis, face, quantity, node].

    face 0/1 is the low/high face along axis s, quantity 0/1 the value and
    the derivative.  Every record holds its cell's value trace, signed -1
    on the low face and +1 on the high face, and its derivative along
    +e_s: the signed stack LocalBlocks.traces applied to the cell, with no
    exception.  On an interior facet, whose normal n_F is +e_s, that is
    the facet convention: value +1 on the minus side and -1 on the plus
    side, derivative along n_F.  A boundary record is read only by its own
    cell's residual.  Row (c*dim + s)*2 + f of records() is one record,
    the layout Mesh.facet_records indexes.  The written flags, one per
    record, track which records a traversal has produced; the interface
    exchange checks them.  The stages sweep's second store holds in row
    (c*dim + s)*2 + f the record across cell c's face (s, f), the other
    record of its facet (a boundary face's own); apply_flux of the two
    stores' data is then the numerical flux of every cell face.
    """

    data: np.ndarray
    written: np.ndarray

    @classmethod
    def zeros(cls, ncells, dim, nf):
        return cls(np.zeros((ncells, dim, 2, 2, nf)),
                   np.zeros((ncells, dim, 2), dtype=bool))

    def records(self):
        """(ncells*dim*2, 2*nf) view, one row per record."""
        return self.data.reshape(-1, 2 * self.data.shape[-1])


def exchange_interface(store, partition):
    """Check that both records of every interface facet were written.

    store is the one FacetProjection all subdomains share, each having
    written the records of its own cells.  If a subdomain skipped its
    traversal, FieldError names the first interface facet whose minus
    (then plus) record is missing: this is the check a distributed run
    depends on.  Returns the store.
    """
    written = store.written.reshape(-1)
    rows = partition.interface_records
    for side, name in ((MINUS, "minus"), (PLUS, "plus")):
        missing = partition.interface_facets[~written[rows[:, side]]]
        if missing.size:
            raise FieldError(f"{name} side of interface facet "
                             f"{int(missing[0])} never written")
    return store
