"""Degree-of-freedom containers for cell, facet and vertex data.

Cell data is stored cell-major in curve order with one contiguous block per
cell.  Facet data comes in two flavours: the two-sided projection field
(values and normal derivatives of the two adjacent cells) and the flux
field (the averaged value/derivative pair per facet).  The smoother keeps
one store of each for the whole mesh, shared by all subdomains, so the
interface exchange only has to check that both sides were written.
Vertex data carries the coarse continuous space.
"""

from __future__ import annotations

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


@dataclass
class CellField:
    """(ncells, nloc) array, one contiguous row per cell in curve order."""

    data: np.ndarray

    @classmethod
    def zeros(cls, ncells, nloc):
        return cls(np.zeros((ncells, nloc)))

    def copy(self):
        return CellField(self.data.copy())

    def to_csv(self, path):
        _dump_csv(path, ("cell", "node", "value"), self.data)


@dataclass
class FacetProjection:
    """Two-sided traces per facet: data[facet, side, quantity, node].

    side 0/1 is the minus/plus cell, quantity 0/1 the value and the
    n_F-directed derivative.  The plus side of a boundary facet stays zero.
    The written flags track which sides a traversal has produced; they feed
    the interface exchange and its missing-side check.
    """

    data: np.ndarray
    written: np.ndarray

    @classmethod
    def zeros(cls, nfacets, nf):
        return cls(np.zeros((nfacets, 2, 2, nf)), np.zeros((nfacets, 2), dtype=bool))

    def copy(self):
        return FacetProjection(self.data.copy(), self.written.copy())

    def to_csv(self, path):
        flat = self.data.reshape(self.data.shape[0], -1)
        _dump_csv(path, ("facet", "slot", "value"), flat)


@dataclass
class FacetFlux:
    """Numerical fluxes per facet: data[facet, quantity, node]."""

    data: np.ndarray

    @classmethod
    def zeros(cls, nfacets, nf):
        return cls(np.zeros((nfacets, 2, nf)))

    def copy(self):
        return FacetFlux(self.data.copy())

    def to_csv(self, path):
        flat = self.data.reshape(self.data.shape[0], -1)
        _dump_csv(path, ("facet", "slot", "value"), flat)


@dataclass
class VertexField:
    data: np.ndarray

    @classmethod
    def zeros(cls, nvertices):
        return cls(np.zeros(nvertices))

    def copy(self):
        return VertexField(self.data.copy())

    def to_csv(self, path):
        _dump_csv(path, ("vertex", "node", "value"), self.data.reshape(-1, 1))


def _dump_csv(path, header, rows2d):
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for i, row in enumerate(rows2d):
            for j, v in enumerate(np.atleast_1d(row)):
                w.writerow((i, j, fmt_float(v)))


def exchange_interface(projections, partition):
    """Complete and check the (minus, plus) pairs of interface facets.

    projections is one FacetProjection per subdomain; each subdomain has
    written exactly the sides owned by its cells.  Both sides of every
    interface facet must have been written, or FieldError names the
    first missing one: this is the check a distributed run depends on.
    Between distinct fields the missing halves are then copied across, so
    both subdomains of an interface facet observe the full pair.  The
    smoother passes its one shared store once per subdomain, so for it
    the exchange only checks.  A single subdomain passes through untouched.
    """
    if len(projections) != partition.nparts:
        raise FieldError("one projection field per subdomain required")
    for a, b, sel in partition.owner_groups:
        for q, side, name in ((a, MINUS, "minus"), (b, PLUS, "plus")):
            missing = sel[~projections[q].written[sel, side]]
            if missing.size:
                raise FieldError(f"{name} side of interface facet "
                                 f"{int(missing[0])} never written")
        if projections[a] is projections[b]:
            continue
        projections[b].data[sel, MINUS] = projections[a].data[sel, MINUS]
        projections[b].written[sel, MINUS] = True
        projections[a].data[sel, PLUS] = projections[b].data[sel, PLUS]
        projections[a].written[sel, PLUS] = True
    return projections
