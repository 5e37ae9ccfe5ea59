"""The four smoother traversals produce the same iterate at different cost.

Runs ten block-Jacobi sweeps with every variant on the same right-hand
side, reports the deviation from the fused baseline, and compares measured
memory traffic against the closed-form per-cell model.
"""

import numpy as np

from hpmg import (build_hierarchy, build_local_blocks, build_rhs,
                  get_problem, make_basis, make_state, memory_access_model,
                  sweep)


def run_variant(mesh, basis, blocks, b, variant, workers=1):
    with make_state(mesh, basis, blocks, b, omega=0.6, variant=variant,
                    workers=workers) as st:
        if variant in ("fused", "tasked"):
            st.warm_up()
        st.counters.reset()
        for _ in range(10):
            sweep(st)
    per_cell = st.counters.total() / (st.counters.sweeps * mesh.ncells)
    return st.u.data.copy(), per_cell


def main(p=3, level=3):
    mesh = build_hierarchy(2, level)[0]
    basis = make_basis("lobatto", p)
    blocks = build_local_blocks(basis, mesh.dim, mesh.h)
    b = build_rhs(get_problem("two_peak"), mesh, basis)

    base, _ = run_variant(mesh, basis, blocks, b, "fused")
    print(f"10 sweeps on {mesh.n}x{mesh.n} cells, p = {p}")
    print(f"{'variant':>10} {'workers':>8} {'dev from fused':>15} "
          f"{'scalars/cell':>13} {'bulk model':>11}")
    for variant, workers in (("vanilla", 1), ("stages", 1), ("fused", 1),
                             ("tasked", 1), ("tasked", 4)):
        u, per_cell = run_variant(mesh, basis, blocks, b, variant, workers)
        dev = np.max(np.abs(u - base))
        if variant in ("vanilla", "fused", "tasked"):
            model = memory_access_model(
                "vanilla" if variant == "vanilla" else "fused", mesh.dim, p)
        else:
            model = "-"
        print(f"{variant:>10} {workers:>8} {dev:>15.2e} "
              f"{per_cell:>13.1f} {model:>11}")
    print("the measured traffic sits slightly above the bulk model because")
    print("boundary facets carry no neighbour side to amortise over")


if __name__ == "__main__":
    main()
