"""One-off traced h-sweep of the unit square; a reference table, not a workload.

    env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 python3 perfbench/sweep.py

For each h in HS: triangulate the unit square (g = 0.25) and run the full
five-cap last_capped ladder under the layer tracer.  Prints one
markdown row per h with nodes, triangles, Newton steps, CG iterations
and the self seconds of each layer that did work.
"""

from __future__ import annotations

import sys

import run

HS = (0.05, 0.025, 0.0125)


def main():
    run.import_towerlab()
    import layertrace
    from towerlab import jssolver, meshing, polygon

    tracer = layertrace.Tracer()
    tracer.install()
    rows = []
    try:
        for h in HS:
            with tracer.section(f"h={h}") as sec:
                mesh = meshing.triangulate(polygon.unit_square(), h, 0.25)
                jssolver.last_capped(mesh)
            rows.append((h, sec, tracer.metrics(sec)))
    finally:
        tracer.uninstall()
    layers = ("polygon", "meshing", "jssolver")
    print("| h | nodes | triangles | Newton steps | CG iterations | "
          + " | ".join(f"{layer} s" for layer in layers) + " | total s |")
    print("|---" * (6 + len(layers)) + "|")
    for h, sec, m in rows:
        total = sec.rec[layertrace.END] - sec.rec[layertrace.START]
        print(f"| {h:g} | {m['meshing.nodes']} | {m['meshing.triangles']} | "
              f"{m['jssolver.newton_steps']} | {m['jssolver.cg_iterations']} | "
              + " | ".join(f"{m[f'{layer}.self_s']:.2f}" for layer in layers)
              + f" | {total:.2f} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
