"""Solve the unit square, check it against the closed form, export meshes.

Writes graph.obj, conjugate.obj, tower.obj and a flux table under
out/square.  The default stabilization gate is too strict for h = 0.05
(the wall layer keeps sliding cap to cap), so this runs with the relaxed
2e-2 gate and reports the resulting core error honestly.
"""

import argparse
import os

import numpy as np

from towerlab.analytic import ScherkSquare, scherk_value
from towerlab.conjugate import (conjugate_surface, edge_flux_report,
                                saddle_tower_piece, surface_to_obj,
                                tower_to_obj, write_flux_csv)
from towerlab.jssolver import NoStabilization, core_mask, graph_to_obj, solve_js
from towerlab.meshing import triangulate
from towerlab.polygon import unit_square


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--h", type=float, default=0.05)
    ap.add_argument("--g", type=float, default=0.25)
    ap.add_argument("--out", default="out/square")
    args = ap.parse_args()

    mesh = triangulate(unit_square(), args.h, args.g)
    print(f"mesh: {len(mesh.nodes)} nodes, {len(mesh.triangles)} triangles, "
          f"min angle {mesh.min_angle():.1f} deg")
    try:
        sol = solve_js(mesh, cauchy_tol=2e-2)
        print(f"stabilized at cap {sol.cap:g}, energy {sol.report.energy:.6f}")
    except NoStabilization as exc:
        sol = exc.last
        print(f"no stabilization at this h ({exc}); using cap {sol.cap:g}")

    core = core_mask(mesh)
    err = np.abs(sol.u[core] - scherk_value(ScherkSquare(), mesh.nodes[core]))
    print(f"core error vs closed form: max {err.max():.2e}, "
          f"mean {err.mean():.2e} over {core.sum()} nodes")

    rows = edge_flux_report(sol)
    for r in rows:
        print(f"edge {r.edge}: marked {r.marking:+d}, flux {r.flux:+.4f}, "
              f"defect {r.defect:.4f}")

    surf = conjugate_surface(sol)
    print(f"conjugate loop defects: {', '.join(f'{d:.2e}' for d in surf.loop_defects)}")
    piece = saddle_tower_piece(surf)
    print(f"tower piece: {len(piece.vertices)} vertices, period "
          f"{tuple(float(p) for p in piece.period)}")

    os.makedirs(args.out, exist_ok=True)
    graph_to_obj(sol, os.path.join(args.out, "graph.obj"))
    surface_to_obj(surf, os.path.join(args.out, "conjugate.obj"))
    tower_to_obj(piece, os.path.join(args.out, "tower.obj"))
    write_flux_csv(rows, os.path.join(args.out, "flux.csv"))
    print(f"wrote OBJ + CSV artifacts to {args.out}")


if __name__ == "__main__":
    main()
