"""Tests of the benchmark itself: the layer tracer and the correctness checks.

    python3 -m pytest perfbench -q

Each check is shown to pass a right result and to reject a wrong one.
"""

import copy
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layertrace  # noqa: E402
import workloads  # noqa: E402
from towerlab import cli, jssolver, meshing, polygon  # noqa: E402


@pytest.fixture(scope="module")
def square():
    mesh = meshing.triangulate(polygon.unit_square(), 0.1, 0.5)
    return mesh, jssolver.solve_capped(mesh, 2.0)


def corner_nodes(nodes):
    return [int(np.argmin(np.hypot(*(nodes - c).T))) for c in checks.SQUARE]


# --- tracer -------------------------------------------------------------

def test_call_reaching_triangulate_through_cli_is_recorded(tmp_path, capsys):
    original = meshing.triangulate
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert cli.triangulate is not original
        with tracer.section("bench.round") as sec:
            rc = cli.main(["export", "--config",
                           os.path.join(ROOT, "configs", "octagon_export.cfg"),
                           "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert cli.triangulate is original and meshing.triangulate is original
    spans = tracer.spans
    i = [s[layertrace.NAME] for s in spans].index("meshing.triangulate")
    chain = []
    p = spans[i][layertrace.PARENT]
    while p >= 0:
        chain.append(spans[p][layertrace.NAME])
        p = spans[p][layertrace.PARENT]
    assert chain == ["cli.run", "cli.main", "bench.round"]
    m = tracer.metrics(sec)
    assert m["meshing.triangulate_calls"] == 1
    assert m["meshing.nodes"] > 0 and m["polygon.contains_calls"] > 0
    assert m["meshing.delaunay_calls"] > 0
    assert m["formats.bytes_written"] == os.path.getsize(tmp_path / "mesh.obj")
    assert m["meshing.self_s"] > 0


def test_solver_counts_ride_on_spans(square):
    mesh, _ = square
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        with tracer.section("bench.round") as sec:
            sol = jssolver.solve_capped(mesh, 3.0)
    finally:
        tracer.uninstall()
    m = tracer.metrics(sec)
    assert m["jssolver.rungs"] == 1
    assert m["jssolver.newton_steps"] == sol.report.iterations
    # one CG call for the harmonic start, one per Newton step
    assert m["jssolver.cg_calls"] == sol.report.iterations + 1
    assert m["jssolver.cg_iterations"] > m["jssolver.cg_calls"]
    assert m["jssolver.line_search_trials"] >= sol.report.iterations + 1
    assert m["jssolver.solve_capped_self_s"] < sum(
        s[layertrace.END] - s[layertrace.START] for s in tracer.spans
        if s[layertrace.NAME] == "jssolver.solve_capped")


# --- verdict --------------------------------------------------------------

def test_failed_operation_makes_the_run_incorrect(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("no solution")

    monkeypatch.setattr(jssolver, "solve_js", boom)
    monkeypatch.setattr(jssolver, "last_capped", boom)
    wl = workloads.Ladder(ROOT, 0, None)
    wl.meshes = dict.fromkeys(("square", "hexagon", "octagon", "split3", "square_fine"))
    wl.round()
    assert (wl.attempted, wl.failed) == (5, 5)
    assert wl.check() == []  # nothing came back to check
    assert any("5 of 5 operations failed" in p for p in wl.verdict())


# --- configs checks -------------------------------------------------------

def core_grid(n=15):
    t = np.linspace(0.15, 0.85, n)
    x, y = np.meshgrid(t, t)
    return x.ravel(), y.ravel()


def test_compare_csv_rejects_non_constant_perturbation():
    x, y = core_grid()
    good = checks.scherk(x, y) + 0.01

    def rows(u):
        return [{"x": str(a), "y": str(b), "u": str(c)} for a, b, c in zip(x, y, u)]

    assert checks.check_compare_csv(rows(good)) == []
    assert checks.check_compare_csv(rows(good + 0.05 * (x - 0.5)))


def test_flux_csv_rejects_sign_flip():
    good = [{"flux": f} for f in ("0.99", "-0.99", "0.99", "-0.99")]
    assert checks.check_flux_csv(good) == []
    flipped = [{"flux": f} for f in ("-0.99", "0.99", "0.99", "-0.99")]
    assert checks.check_flux_csv(flipped)


def test_period_rejects_other_period():
    assert checks.check_period({"period": [0, 0, 2]}) == []
    assert checks.check_period({"period": [0, 0, 1]})


def test_conjugate_heights_reject_sign_flip(square):
    mesh, _ = square
    nodes = np.asarray(mesh.nodes)
    graph = np.column_stack([nodes, np.zeros(len(nodes))])
    conj = np.zeros_like(graph)
    parity = np.array([0.0, 1.0, 0.0, 1.0])
    conj[corner_nodes(nodes), 2] = parity
    assert checks.check_conjugate_heights(graph, conj) == []
    conj[corner_nodes(nodes), 2] = -parity
    assert checks.check_conjugate_heights(graph, conj)


COLLAPSE = {
    "candidates": [{"segment": [[1.00001, 1.0], [-1e-5, 1.0]],
                    "flux_ratio": [0.61, 0.81, 0.92, 0.97], "verdict": "diverging"}],
    "rhombi": [[[0, 0], [1, 0], [1.00001, 1], [-1e-5, 1]],
               [[-1e-5, 1], [1.00001, 1], [1, 2], [0, 2]]],
}


@pytest.mark.parametrize("break_it", [
    lambda p: p["candidates"][0].update(verdict="undecided"),
    lambda p: p["candidates"][0].update(flux_ratio=[0.61, 0.81, 0.97, 0.92]),
    lambda p: p["candidates"][0].update(flux_ratio=[0.61, 0.81, 0.9, 0.93]),
    lambda p: p["candidates"][0].update(segment=[[0, 1.5], [1, 1.5]]),
    lambda p: p["rhombi"][1].__setitem__(2, [1, 2.5]),
    lambda p: p["rhombi"].pop(),
])
def test_collapse_report_rejects_wrong_reports(break_it):
    assert checks.check_collapse_report(copy.deepcopy(COLLAPSE)) == []
    bad = copy.deepcopy(COLLAPSE)
    break_it(bad)
    assert checks.check_collapse_report(bad)


def test_samples_reject_non_constant_perturbation():
    x, y = core_grid()
    v = checks.scherk(x, y) - checks.scherk(0.5, 0.5)

    def rows(vals):
        return [{"x": str(a), "y": str(b), "value": str(c)} for a, b, c in zip(x, y, vals)]

    assert checks.check_samples(rows(v)) == []
    assert checks.check_samples(rows(v + 0.1 * (y - 0.5)))


def test_octagon_mesh_rejects_flipped_or_missing_triangles():
    mesh = meshing.triangulate(polygon.regular_polygon(4), 0.1, 0.5)
    verts = np.column_stack([mesh.nodes, np.zeros(len(mesh.nodes))])
    faces = np.array(mesh.triangles)
    assert checks.check_octagon_mesh(verts, faces) == []
    flipped = faces.copy()
    flipped[0] = flipped[0, ::-1]
    assert checks.check_octagon_mesh(verts, flipped)
    assert checks.check_octagon_mesh(verts, faces[1:])


# --- ladder checks --------------------------------------------------------

def test_rungs_reject_perturbed_solution(square):
    mesh, sol = square
    verts = np.asarray(mesh.polygon.vertices)
    nodes, tris = np.asarray(mesh.nodes), np.asarray(mesh.triangles)
    u = np.array(sol.u)
    trace = sol.report.energy_trace
    assert checks.check_rungs(verts, nodes, tris, [(2.0, u, trace)]) == []
    interior = np.asarray(mesh.interior_mask())
    bumped = u + 1e-3 * interior * nodes[:, 0]
    assert checks.check_rungs(verts, nodes, tris, [(2.0, bumped, trace)])
    assert checks.check_rungs(verts, nodes, tris, [(3.0, u, trace)])
    assert checks.check_rungs(verts, nodes, tris, [(2.0, u, trace[::-1])])


def test_rungs_reject_energy_above_zero_extension(square):
    mesh, _ = square
    verts = np.asarray(mesh.polygon.vertices)
    nodes, tris = np.asarray(mesh.nodes), np.asarray(mesh.triangles)
    idx, vals = checks.boundary_data(verts, nodes, 2.0)
    zero = np.zeros(len(nodes))
    zero[idx] = vals
    problems = checks.check_rungs(verts, nodes, tris, [(2.0, zero, (1.0,))])
    assert any("zero extension" in p for p in problems)


def test_boundary_data_matches_markings(square):
    mesh, _ = square
    idx, vals = checks.boundary_data(np.asarray(mesh.polygon.vertices),
                                     np.asarray(mesh.nodes), 5.0)
    mine = dict(zip(idx.tolist(), vals.tolist()))
    theirs = dict(zip(np.asarray(mesh.boundary_nodes()).tolist(),
                      jssolver.boundary_values(mesh, 5.0).tolist()))
    assert mine == theirs


def test_stabilized_rejects_missing_gate():
    assert checks.check_stabilized("square", 3.0, (0.003,)) == []
    assert checks.check_stabilized("square", None, (0.07, 0.07))
    assert checks.check_stabilized("square", 3.0, (0.07,))


def test_split_drift_rejects_stalling_core():
    nodes = np.array([[0.5, 0.5], [0.5, 1.0], [0.0, 0.0]])
    moving = [np.array([0.0, 0, 0]), np.array([0.6, 0, 0]), np.array([1.3, 0, 0]),
              np.array([2.1, 0, 0])]
    verts = np.array([[0, 0], [1, 0], [1, 1], [1, 2], [0, 2], [0, 1]], dtype=float)
    assert checks.check_split_drift(verts, nodes, moving) == []
    slowing = [moving[0], moving[1], moving[2], moving[2] + 0.4]
    assert checks.check_split_drift(verts, nodes, slowing)


def test_core_error_modulo_constant_rejects_non_constant_perturbation(square):
    mesh, _ = square
    nodes = np.asarray(mesh.nodes)
    inside = checks.boundary_distance(checks.SQUARE, nodes) > 1e-9
    exact = np.zeros(len(nodes))
    exact[inside] = checks.scherk(nodes[inside, 0], nodes[inside, 1])
    assert checks.check_square_core_error("h", nodes, exact + 0.3, True, 0.02) == []
    assert checks.check_square_core_error("h", nodes, exact + 0.3, False, 0.02)
    assert checks.check_square_core_error("h", nodes, exact + 0.1 * nodes[:, 0], True, 0.02)


# --- probe checks ---------------------------------------------------------

def test_chord_flux_rejects_sign_flip():
    chords = [((0.2, 0.3), (0.7, 0.8)), ((0.8, 0.2), (0.3, 0.4))]
    exact = [checks.chord_flux(p, q) for p, q in chords]
    assert checks.check_chord_fluxes(chords, exact) == []
    assert checks.check_chord_fluxes(chords, [exact[0], -exact[1]])


def test_chord_flux_quadrature_matches_closed_form_conjugate():
    # across the diagonal the closed form's conjugate is known: psi(x, y)
    # has equal flux through any two paths with the same end points
    p, q, r = (0.3, 0.3), (0.7, 0.4), (0.6, 0.75)
    direct = checks.chord_flux(p, r)
    assert abs(direct - checks.chord_flux(p, q) - checks.chord_flux(q, r)) < 1e-12
    # along the vertical centre line u_y = 0 and u_x = 0: zero flux
    assert abs(checks.chord_flux((0.5, 0.2), (0.5, 0.8))) < 1e-12


def test_located_points_reject_shifted_index(square):
    mesh, _ = square
    nodes, tris = np.asarray(mesh.nodes), np.asarray(mesh.triangles)
    rng = np.random.default_rng(0)
    pts = np.vstack([rng.uniform(0.01, 0.99, (40, 2)), nodes[corner_nodes(nodes)],
                     0.5 * (nodes[tris[:5, 0]] + nodes[tris[:5, 1]])])
    idx, bary = meshing.locate_many(mesh, pts)
    assert checks.check_barycentric(nodes, tris, pts, idx, bary) == []
    assert checks.check_lowest_index(nodes, tris, pts, idx) == []
    assert checks.check_lowest_index(nodes, tris, pts, idx + 1)
    assert checks.check_barycentric(nodes, tris, pts, idx + 1, bary)
    assert checks.check_barycentric(nodes, tris, pts, idx, np.roll(bary, 1, axis=1))


def test_point_values_reject_perturbed_u_and_wrong_triangle(square):
    mesh, sol = square
    nodes, tris = np.asarray(mesh.nodes), np.asarray(mesh.triangles)
    u = np.asarray(sol.u)
    pts = np.random.default_rng(1).uniform(0.02, 0.98, (30, 2))
    vals = [jssolver.u_at(sol, q) for q in pts]
    grads = [jssolver.gradient_at(sol, q) for q in pts]
    assert checks.check_point_values(nodes, tris, u, pts, values=vals, grads=grads) == []
    bumped = np.array(vals) + 0.01 * pts[:, 0]
    assert checks.check_point_values(nodes, tris, u, pts, values=bumped)
    idx, _ = meshing.locate_many(mesh, pts)
    wrong = np.asarray(sol.grad)[(idx + 1) % len(tris)]
    assert checks.check_point_values(nodes, tris, u, pts, grads=wrong)


def test_wall_fluxes_reject_sign_flip():
    good = [0.995, -0.995, 0.995, -0.995]
    assert checks.check_wall_fluxes(good) == []
    assert checks.check_wall_fluxes([-f for f in good])


def test_vertex_parity_rejects_swapped_planes(square):
    mesh, _ = square
    nodes = np.asarray(mesh.nodes)
    psi = np.full(len(nodes), 0.5)
    psi[corner_nodes(nodes)] = [0.0, 1.0, 0.0, 1.0]
    assert checks.check_vertex_parity(checks.SQUARE, nodes, psi) == []
    psi[corner_nodes(nodes)] = [1.0, 0.0, 1.0, 0.0]
    assert checks.check_vertex_parity(checks.SQUARE, nodes, psi)
