"""The three workloads: shipped configs, cap ladders and point probes.

Each workload has a set-up that builds what its rounds read, a round
that is the timed unit of work (the same operations every time), and a
check that compares the outputs of the rounds with computations made
in ``checks``.  Every call into towerlab goes through a module
attribute (``meshing.triangulate``, not a local name), so the tracer's
wrappers see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import sys

import numpy as np

from towerlab import cli, conjugate, jssolver, meshing, polygon

import checks

GATED_CAUCHY_TOL = 0.02
GRADING = 0.25


class Workload:
    """Counts operations; one that raises is failed and the round goes on."""

    def __init__(self, root, seed, scratch):
        self.root = root
        self.seed = seed
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0

    def op(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None

    def after_round(self):
        """Untimed bookkeeping between rounds."""

    def verdict(self):
        """Problems found by the checks; a failed operation is one too,
        since the checks cannot look at an output it never returned."""
        problems = self.check()
        if self.failed:
            problems.append(f"{self.failed} of {self.attempted} operations failed; "
                            "their outputs were not checked")
        return problems


class Configs(Workload):
    """Each file of configs/ through cli.main, into a fresh directory."""

    def setup(self):
        cfg_dir = os.path.join(self.root, "configs")
        self.configs = []
        for fname in sorted(os.listdir(cfg_dir)):
            if fname.endswith(".cfg"):
                path = os.path.join(cfg_dir, fname)
                self.configs.append((fname[:-4], cli.load_config(path).mode, path))
        self.rounds = 0
        self.digests = []

    def _out(self, k):
        return os.path.join(self.scratch, f"configs-round{k}")

    def round(self):
        base = self._out(self.rounds)
        for name, mode, path in self.configs:
            out = os.path.join(base, name)
            with contextlib.redirect_stdout(io.StringIO()) as printed:
                rc = self.op(cli.main, [mode, "--config", path, "--out", out])
            if rc not in (0, None):
                # main turns a failure into an error record and status 1
                self.failed += 1
                print(f"perfbench: {name}: {printed.getvalue().strip()}", file=sys.stderr)
        self.rounds += 1

    def after_round(self):
        base = self._out(self.rounds - 1)
        digest = {}
        for dirpath, _dirs, files in os.walk(base):
            for f in files:
                p = os.path.join(dirpath, f)
                with open(p, "rb") as fh:
                    digest[os.path.relpath(p, base)] = hashlib.sha256(fh.read()).hexdigest()
        self.digests.append(digest)
        if self.rounds > 1:
            shutil.rmtree(base)

    def check(self):
        out = []
        if any(d != self.digests[0] for d in self.digests[1:]):
            out.append("configs: artifacts differ between rounds")
        base = self._out(0)
        names = {name for name, _mode, _path in self.configs}
        want = {"square_compare", "square_flux", "square_solve",
                "hexagon_collapse", "octagon_export"}
        if names != want:
            return out + [f"configs: found {sorted(names)}, checks cover {sorted(want)}"]

        def path(*parts):
            return os.path.join(base, *parts)

        def guarded(label, fn, *args):
            try:
                return fn(*args)
            except (OSError, KeyError, ValueError) as exc:
                return [f"{label}: unreadable ({type(exc).__name__}: {exc})"]

        out += guarded("compare.csv", lambda: checks.check_compare_csv(
            checks.read_csv(path("square_compare", "compare.csv"))))
        out += guarded("flux.csv", lambda: checks.check_flux_csv(
            checks.read_csv(path("square_flux", "flux.csv"))))
        out += guarded("period.json", lambda: checks.check_period(
            checks.load_json(path("square_solve", "period.json"))))
        out += guarded("conjugate.obj", lambda: checks.check_conjugate_heights(
            checks.read_obj(path("square_solve", "graph.obj"))[0],
            checks.read_obj(path("square_solve", "conjugate.obj"))[0]))
        out += guarded("collapse report.json", lambda: checks.check_collapse_report(
            checks.load_json(path("hexagon_collapse", "report.json"))))
        out += guarded("samples.csv", lambda: checks.check_samples(
            checks.read_csv(path("hexagon_collapse", "samples.csv"))))
        out += guarded("mesh.obj", lambda: checks.check_octagon_mesh(
            *checks.read_obj(path("octagon_export", "mesh.obj"))))
        return out


class Ladder(Workload):
    """Gated solve_js ladders beside full last_capped ladders."""

    GATED = ("square", "hexagon", "octagon")

    def setup(self):
        domains = {
            "square": (polygon.unit_square(), 0.05),
            "hexagon": (polygon.regular_polygon(3), 0.05),
            "octagon": (polygon.regular_polygon(4), 0.05),
            "split3": (polygon.split_rectangle(3), 0.05),
            "square_fine": (polygon.unit_square(), 0.025),
        }
        self.meshes = {k: meshing.triangulate(p, h, GRADING) for k, (p, h) in domains.items()}

    def round(self):
        res = {}
        for name in self.GATED:
            res[name] = self.op(jssolver.solve_js, self.meshes[name],
                                cauchy_tol=GATED_CAUCHY_TOL)
        res["split3"] = self.op(jssolver.last_capped, self.meshes["split3"])
        res["square_fine"] = self.op(jssolver.last_capped, self.meshes["square_fine"])
        self.results = res

    def check(self):
        out = []
        res = self.results

        def geometry(name):
            mesh = self.meshes[name]
            return (np.asarray(mesh.polygon.vertices), np.asarray(mesh.nodes),
                    np.asarray(mesh.triangles))

        def rung(sol):
            return (sol.cap, np.asarray(sol.u), sol.report.energy_trace)

        for name in self.GATED:
            sol = res[name]
            if sol is None:
                continue
            verts, nodes, tris = geometry(name)
            out += checks.check_stabilized(name, sol.report.stabilized_cap,
                                           sol.report.core_drift)
            out += [f"{name}: {p}" for p in checks.check_rungs(verts, nodes, tris, [rung(sol)])]
        for name in ("split3", "square_fine"):
            ladder = res[name]
            if ladder is None:
                continue
            verts, nodes, tris = geometry(name)
            out += [f"{name}: {p}" for p in
                    checks.check_rungs(verts, nodes, tris, [rung(s) for s in ladder])]
        if res["split3"] is not None:
            verts, nodes, _tris = geometry("split3")
            out += checks.check_split_drift(verts, nodes, [np.asarray(s.u) for s in res["split3"]])
        if res["square"] is not None:
            out += checks.check_square_core_error(
                "square h=0.05", np.asarray(self.meshes["square"].nodes),
                np.asarray(res["square"].u), False, checks.SQUARE_CORE_ERR_H05)
        if res["square_fine"] is not None:
            out += checks.check_square_core_error(
                "square h=0.025", np.asarray(self.meshes["square_fine"].nodes),
                np.asarray(res["square_fine"][-1].u), True,
                checks.SQUARE_CORE_ERR_H025_MODULO_CONST)
        return out


class Probe(Workload):
    """Read-only queries on the deepest capped square solve at h = 0.025."""

    GRID = 64           # dense grid is GRID x GRID jittered cell points
    SCATTER = 4096      # gradient_at_many points
    SINGLES = 50        # points for each of u_at, gradient_at, psi_at
    CHORDS = 20
    SCAN_SAMPLE = 256   # grid points re-located by the full scan

    def __init__(self, root, seed, scratch):
        super().__init__(root, seed, scratch)
        rng = np.random.default_rng(self.seed)
        n = self.GRID
        ij = np.stack(np.meshgrid(np.arange(n), np.arange(n), indexing="ij"), axis=-1).reshape(-1, 2)
        self.grid = (ij + rng.uniform(0.05, 0.95, ij.shape)) / n
        self.scatter = rng.uniform(0.01, 0.99, (self.SCATTER, 2))
        self.singles = rng.uniform(0.01, 0.99, (self.SINGLES, 2))
        self.chords = rng.uniform(0.15, 0.85, (self.CHORDS, 2, 2))
        self.scan_sample = rng.choice(len(self.grid), self.SCAN_SAMPLE, replace=False)

    def setup(self):
        self.mesh = meshing.triangulate(polygon.unit_square(), 0.025, GRADING)
        self.sol = jssolver.last_capped(self.mesh)[-1]

    def round(self):
        sol = self.sol
        r = {}
        r["located"] = self.op(meshing.locate_many, self.mesh, self.grid)
        r["scatter_grad"] = self.op(jssolver.gradient_at_many, sol, self.scatter)
        field = r["field"] = self.op(conjugate.conjugate_function, sol)
        r["u"] = [self.op(jssolver.u_at, sol, q) for q in self.singles]
        r["grad"] = [self.op(jssolver.gradient_at, sol, q) for q in self.singles]
        r["psi"] = [None if field is None else self.op(conjugate.psi_at, field, q)
                    for q in self.singles]
        r["flux"] = [self.op(conjugate.flux, sol, c) for c in self.chords]
        r["surface"] = self.op(conjugate.conjugate_surface, sol)
        r["walls"] = self.op(conjugate.edge_flux_report, sol)
        self.results = r

    def check(self):
        out = []
        r = self.results
        nodes = np.asarray(self.mesh.nodes)
        tris = np.asarray(self.mesh.triangles)
        u = np.asarray(self.sol.u)
        if r["located"] is not None:
            idx, bary = r["located"]
            out += checks.check_barycentric(nodes, tris, self.grid, idx, bary)
            s = self.scan_sample
            out += checks.check_lowest_index(nodes, tris, self.grid[s], idx[s])
        if r["scatter_grad"] is not None:
            s = slice(0, self.SCAN_SAMPLE)
            out += checks.check_point_values(nodes, tris, u, self.scatter[s],
                                             grads=r["scatter_grad"][s])
        ok = [i for i in range(self.SINGLES)
              if r["u"][i] is not None and r["grad"][i] is not None]
        if ok:
            out += checks.check_point_values(nodes, tris, u, self.singles[ok],
                                             values=[r["u"][i] for i in ok],
                                             grads=[r["grad"][i] for i in ok])
        chords = [(c[0], c[1]) for c, f in zip(self.chords, r["flux"]) if f is not None]
        fluxes = [f for f in r["flux"] if f is not None]
        if fluxes:
            out += checks.check_chord_fluxes(chords, fluxes)
        if r["walls"] is not None:
            out += checks.check_wall_fluxes([row.flux for row in r["walls"]])
        if r["field"] is not None:
            psi = np.asarray(r["field"].psi)
            out += checks.check_vertex_parity(checks.SQUARE, nodes, psi)
            ok = [i for i in range(self.SINGLES) if r["psi"][i] is not None]
            if ok:
                out += checks.check_point_values(nodes, tris, psi, self.singles[ok],
                                                 values=[r["psi"][i] for i in ok])
        if r["surface"] is not None:
            xyz = np.asarray(r["surface"].xyz)
            out += checks.check_vertex_parity(checks.SQUARE, nodes, xyz[:, 2])
        return out


WORKLOADS = {"configs": Configs, "ladder": Ladder, "probe": Probe}
