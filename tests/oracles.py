"""Independent reference constructions used across the test suite.

Everything here is deliberately brute force and shares no code path with
the package internals it checks: the global matrix comes from plain facet
and volume quadrature of the penalised weak form, and the block-composed
variant only trusts the per-cell blocks as published data.
"""

from types import SimpleNamespace

import numpy as np


def mesh_tables(mesh):
    """The mesh's index tables rebuilt entity by entity.

    Reads only mesh.cells, mesh.n, mesh.h and the documented facet-id
    layout: per axis s, (n+1) n^(dim-1) facets ordered by plane along s,
    then by cross-axis position in C order over the other axes.  A facet's
    minus cell lies below its plane and its plus cell above; a boundary
    facet has only a minus cell, with the outward normal.  Returns the
    mesh's facet_boundary, facet_cells, facet_records, neighbors and
    opposite_records, plus what the mesh does not store: each facet's
    axis and orientation n_F . e_axis, each cell face's facet id and the
    side the cell occupies there (0 minus, 1 plus), and the vertex
    coordinates, C-major over [0, n]^dim.  cell_vertices lists each
    cell's corner vertex ids, corners C-major over (lo, hi) per axis.
    """
    dim, n = mesh.dim, mesh.n
    cells = [tuple(c) for c in mesh.cells.tolist()]
    rank = {c: k for k, c in enumerate(cells)}
    cross = n ** (dim - 1)
    nf = (n + 1) * cross
    nfacets = dim * nf

    def record(k, s, f):
        return (k * dim + s) * 2 + f

    facet_axis = np.empty(nfacets, dtype=np.int64)
    facet_orient = np.empty(nfacets, dtype=np.int64)
    facet_boundary = np.empty(nfacets, dtype=bool)
    facet_cells = np.full((nfacets, 2), -1, dtype=np.int64)
    facet_records = np.full((nfacets, 2), -1, dtype=np.int64)
    for F in range(nfacets):
        s, rest = divmod(F, nf)
        plane, pos = divmod(rest, cross)
        other = []
        for _ in range(dim - 1):
            pos, digit = divmod(pos, n)
            other.insert(0, digit)
        below = tuple(other[:s]) + (plane - 1,) + tuple(other[s:])
        above = tuple(other[:s]) + (plane,) + tuple(other[s:])
        present = [rank[c] for c in (below, above) if c in rank]
        facet_axis[F] = s
        facet_orient[F] = -1 if plane == 0 else 1
        facet_boundary[F] = len(present) == 1
        facet_cells[F, :len(present)] = present
        if facet_boundary[F]:
            face = 0 if plane == 0 else 1
            facet_records[F] = record(present[0], s, face)
        else:
            facet_records[F] = record(present[0], s, 1), record(present[1], s, 0)

    ncells = len(cells)
    cell_facets = np.empty((ncells, dim, 2), dtype=np.int64)
    cell_side = np.empty((ncells, dim, 2), dtype=np.int64)
    neighbors = np.full((ncells, dim, 2), -1, dtype=np.int64)
    opposite_records = np.empty(ncells * dim * 2, dtype=np.int64)
    for k, c in enumerate(cells):
        for s in range(dim):
            pos = 0
            for ax in range(dim):
                if ax != s:
                    pos = pos * n + c[ax]
            for f in (0, 1):
                F = s * nf + (c[s] + f) * cross + pos
                cell_facets[k, s, f] = F
                cell_side[k, s, f] = list(facet_cells[F]).index(k)
                step = c[:s] + (c[s] + 2 * f - 1,) + c[s + 1:]
                neighbors[k, s, f] = rank.get(step, -1)
                pair = list(facet_records[F])
                own = record(k, s, f)
                opposite_records[own] = pair[1 - pair.index(own)]

    vertex_coords = np.indices((n + 1,) * dim).reshape(dim, -1).T * mesh.h
    cell_vertices = np.empty((ncells, 2 ** dim), dtype=np.int64)
    for k, c in enumerate(cells):
        for b in range(2 ** dim):
            vid = 0
            for s in range(dim):
                vid = vid * (n + 1) + c[s] + (b >> (dim - 1 - s)) % 2
            cell_vertices[k, b] = vid
    return SimpleNamespace(
        facet_axis=facet_axis, facet_orient=facet_orient,
        facet_boundary=facet_boundary, facet_cells=facet_cells,
        facet_records=facet_records, cell_facets=cell_facets,
        cell_side=cell_side, neighbors=neighbors,
        opposite_records=opposite_records, vertex_coords=vertex_coords,
        cell_vertices=cell_vertices)


def assemble_global(mesh, basis, theta, gamma):
    """Quadrature assembly of the full bilinear form on one mesh.

    Volume terms cell by cell, facet terms facet by facet with jump and
    average built from the two adjacent trace rows; boundary facets get
    the one-sided form with the full penalty, interior facets half of it.
    """
    p = basis.p
    n1 = p + 1
    nloc = n1 * n1
    h = mesh.h
    N = mesh.ncells * nloc
    A = np.zeros((N, N))
    qx, qw = basis.quad_x, basis.quad_w
    E = basis.eval(qx)
    Ed = basis.eval_deriv(qx)
    nq = qx.size

    G1 = np.zeros((nq * nq, nloc))
    G2 = np.zeros((nq * nq, nloc))
    W = np.zeros(nq * nq)
    for q1 in range(nq):
        for q2 in range(nq):
            q = q1 * nq + q2
            W[q] = qw[q1] * qw[q2] * h * h
            for a in range(n1):
                for b in range(n1):
                    loc = a * n1 + b
                    G1[q, loc] = Ed[q1, a] / h * E[q2, b]
                    G2[q, loc] = E[q1, a] * Ed[q2, b] / h
    Vol = G1.T @ (W[:, None] * G1) + G2.T @ (W[:, None] * G2)
    for K in range(mesh.ncells):
        sl = slice(K * nloc, (K + 1) * nloc)
        A[sl, sl] += Vol

    e0 = basis.eval(0.0)[0]
    e1 = basis.eval(1.0)[0]
    g0 = basis.eval_deriv(0.0)[0] / h
    g1 = basis.eval_deriv(1.0)[0] / h

    def trace_rows(axis, face):
        ev = e1 if face == 1 else e0
        gv = g1 if face == 1 else g0
        V = np.zeros((nq, nloc))
        D = np.zeros((nq, nloc))
        for q in range(nq):
            for a in range(n1):
                for b in range(n1):
                    loc = a * n1 + b
                    if axis == 0:
                        V[q, loc] = ev[a] * E[q, b]
                        D[q, loc] = gv[a] * E[q, b]
                    else:
                        V[q, loc] = E[q, a] * ev[b]
                        D[q, loc] = E[q, a] * gv[b]
        return V, D

    Wf = qw * h
    t = mesh_tables(mesh)
    for F in range(mesh.nfacets):
        s = t.facet_axis[F]
        Km, Kp = t.facet_cells[F]
        orient = t.facet_orient[F]
        if t.facet_boundary[F]:
            face = 1 if orient > 0 else 0
            V, D = trace_rows(s, face)
            Dn = orient * D
            sl = slice(Km * nloc, (Km + 1) * nloc)
            A[sl, sl] += (-V.T @ (Wf[:, None] * Dn)
                          + theta * Dn.T @ (Wf[:, None] * V)
                          + gamma * V.T @ (Wf[:, None] * V))
        else:
            Vm, Dm = trace_rows(s, 1)
            Vp, Dp = trace_rows(s, 0)
            slm = slice(Km * nloc, (Km + 1) * nloc)
            slp = slice(Kp * nloc, (Kp + 1) * nloc)
            # jump [u] = u- - u+, average {d_n u} = (Dm + Dp) / 2, n = +e_s
            for (rows, Jv, Av) in ((slm, Vm, 0.5 * Dm), (slp, -Vp, 0.5 * Dp)):
                for (cols, Ju, Au) in ((slm, Vm, 0.5 * Dm), (slp, -Vp, 0.5 * Dp)):
                    A[rows, cols] += (-Jv.T @ (Wf[:, None] * Au)
                                      + theta * Av.T @ (Wf[:, None] * Ju)
                                      + 0.5 * gamma * Jv.T @ (Wf[:, None] * Ju))
    return A


def blocks_global(mesh, blocks):
    """Global matrix from the per-cell blocks, trusting only their layout."""
    nloc = blocks.nloc
    N = mesh.ncells * nloc
    A = np.zeros((N, N))
    for K in range(mesh.ncells):
        bfaces = [(s, f) for s in range(mesh.dim) for f in (0, 1)
                  if mesh.neighbors[K, s, f] < 0]
        sl = slice(K * nloc, (K + 1) * nloc)
        A[sl, sl] = blocks.assemble_true_diagonal(bfaces)
        for s in range(mesh.dim):
            for f in (0, 1):
                Kn = mesh.neighbors[K, s, f]
                if Kn >= 0:
                    A[sl, Kn * nloc:(Kn + 1) * nloc] = blocks.Nb[s][f]
    return A


def interbasis_matrix(basis_from, basis_to):
    """Per-axis nodal change of basis: values of basis_from's cardinal
    functions at basis_to's nodes; kron with itself maps 2D cell dofs."""
    return basis_from.eval(basis_to.nodes)


def free_vertices(n):
    """Flat mask of the interior vertices of an (n+1, n+1) vertex grid."""
    free = np.zeros((n + 1, n + 1), dtype=bool)
    free[1:-1, 1:-1] = True
    return free.reshape(-1)


def nine_point_stencil(stencil, U):
    """The vertex stencil as nine shifted multiply-adds over a zero-padded
    copy of U, with the Dirichlet rows zeroed afterwards."""
    P = np.pad(U, 1)
    R = np.zeros_like(U)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            R += stencil[di + 1, dj + 1] * P[1 + di:P.shape[0] - 1 + di,
                                             1 + dj:P.shape[1] - 1 + dj]
    R[0, :] = R[-1, :] = R[:, 0] = R[:, -1] = 0.0
    return R


def assembled_vertex_matrix(stencil, n):
    """The stencil assembled row by row on the (n-1)^2 interior vertices
    of an n-cell grid, row-major; couplings to the ring are dropped."""
    m = n - 1
    A = np.zeros((m * m, m * m))
    for i in range(m):
        for j in range(m):
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    if 0 <= i + di < m and 0 <= j + dj < m:
                        A[i * m + j, (i + di) * m + j + dj] = \
                            stencil[di + 1, dj + 1]
    return A


def vcycle_dense(cspace, li, b, nu_pre, nu_post, omega):
    """The vertex V-cycle from zero on interior-vertex vectors: assembled
    matrices, dense damped Jacobi, transfers by kron(W, W) and a dense
    solve on the base level.  Trusts only the levels' stencil, n and W."""
    lev = cspace.levels[li]
    A = assembled_vertex_matrix(lev.stencil, lev.n)
    if li == len(cspace.levels) - 1:
        return np.linalg.solve(A, b)
    nc = cspace.levels[li + 1].n
    P = np.kron(lev.W, lev.W)[np.ix_(free_vertices(lev.n), free_vertices(nc))]
    w = omega / lev.stencil[1, 1]
    u = np.zeros_like(b)
    for _ in range(nu_pre):
        u = u + w * (b - A @ u)
    u = u + P @ vcycle_dense(cspace, li + 1, P.T @ (b - A @ u),
                             nu_pre, nu_post, omega)
    for _ in range(nu_post):
        u = u + w * (b - A @ u)
    return u


def jacobi_iteration_dense(A, Sinv_blk, omega, u, b, nsteps=1):
    """Dense block-Jacobi reference: u += omega * blkdiag(Sinv) (b - A u)."""
    nloc = Sinv_blk.shape[0]
    ncells = A.shape[0] // nloc
    D = np.zeros_like(A)
    for k in range(ncells):
        sl = slice(k * nloc, (k + 1) * nloc)
        D[sl, sl] = Sinv_blk
    u = u.copy()
    for _ in range(nsteps):
        u = u + omega * D @ (b - A @ u)
    return u
