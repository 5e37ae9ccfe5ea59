import numpy as np
import pytest

from hpmg import (
    CellField,
    FacetProjection,
    FieldError,
    exchange_interface,
    fmt_float,
    make_basis,
    make_partition,
    make_state,
    norm,
)
from hpmg.fields import MINUS, PLUS

from conftest import blocks_for, mesh_at


def test_fmt_float_round_trips(rng):
    for x in [0.0, 1.0, -1.0 / 3.0, np.pi, 1e-300, *rng.normal(size=20)]:
        assert float(fmt_float(x)) == float(x)


def test_norm_examples():
    assert norm(np.zeros(5)) == 0.0
    assert norm(np.array([1.0])) == 1.0
    assert norm(np.array([1.0]), "linf") == 1.0
    n = 49
    assert norm(np.ones(n)) == pytest.approx(np.sqrt(n))
    assert norm(np.ones(n), "linf") == 1.0
    assert norm(np.array([3.0, -4.0])) == pytest.approx(5.0)
    # fields are accepted directly
    assert norm(CellField(np.full((2, 2), 2.0)), "linf") == 2.0
    with pytest.raises(ValueError):
        norm(np.ones(3), "l1")


def test_cell_field_basics():
    u = CellField.zeros(3, 4)
    assert u.data.shape == (3, 4)
    assert np.all(u.data == 0.0)
    u.data[1, 2] = -0.5
    v = u.copy()
    v.data[1, 2] = 7.0
    assert u.data[1, 2] == -0.5


def test_facet_containers_shapes():
    proj = FacetProjection.zeros(24, 2, 3)
    assert proj.data.shape == (24, 2, 2, 2, 3)
    assert proj.written.shape == (24, 2, 2)
    assert not proj.written.any()
    assert proj.records().shape == (24 * 2 * 2, 2 * 3)


def test_exchange_single_part_is_identity():
    mesh = mesh_at(1)
    part = make_partition(mesh, "balanced", 1)
    proj = FacetProjection.zeros(mesh.ncells, mesh.dim, 2)
    assert exchange_interface(proj, part) is proj


def test_exchange_rejects_bad_input():
    # one shared store that every subdomain wrote, as a projection
    # traversal leaves it, but for one side of one interface facet
    mesh = mesh_at(1)
    part = make_partition(mesh, "balanced", 2)
    f = int(part.interface_facets[0])
    for side, name in ((MINUS, "minus"), (PLUS, "plus")):
        store = FacetProjection.zeros(mesh.ncells, mesh.dim, 2)
        store.written[:] = True
        assert exchange_interface(store, part) is store
        store.written.reshape(-1)[mesh.facet_records[f, side]] = False
        with pytest.raises(FieldError,
                           match=f"{name} side of interface facet {f} never"):
            exchange_interface(store, part)


@pytest.mark.parametrize("kind", ["lobatto", "legendre"])
def test_nodal_interpolation_reproduces_polynomials(kind, rng):
    # a degree-p polynomial stored by its nodal values evaluates exactly
    # anywhere in the cell
    p = 3
    basis = make_basis(kind, p)
    coeffs = rng.normal(size=p + 1)
    poly = np.polynomial.Polynomial(coeffs)
    vals = poly(basis.nodes)
    x = rng.uniform(0, 1, size=40)
    got = basis.eval(x) @ vals
    np.testing.assert_allclose(got, poly(x), atol=1e-11)


def test_exchange_fails_when_a_traversal_skips_a_part(monkeypatch):
    # the written flags belong to one traversal: a part whose projection
    # was skipped is caught, even after an earlier traversal wrote it
    mesh, basis, blocks = blocks_for("lobatto", 2, 2)
    part = make_partition(mesh, "balanced", 4)
    b = CellField(np.ones((mesh.ncells, blocks.nloc)))
    st = make_state(mesh, basis, blocks, b, partition=part, variant="fused")
    st.warm_up()
    s0, s1 = part.cell_range(2)
    project_range = st._project_range

    def skip_part(lo, hi):      # a traversal of lo..hi that leaves part 2 out
        project_range(lo, hi)
        st.proj[0].written[s0:s1] = False

    monkeypatch.setattr(st, "_project_range", skip_part)
    with pytest.raises(FieldError, match="never written"):
        exchange_interface(st.project(), st.partition)
