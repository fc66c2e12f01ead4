"""Degenerating sequences: candidates, divergence verdicts, rhombi, limit tags.

The H(delta) family collapsing onto the 1x2 split rectangle is the main
subject: its single candidate segment must come out diverging with the
per-length flux saturating, while a probe in the lower rhombus keeps a
bounded gradient and the normalized solution matches the closed-form
doubly periodic piece.  Constant and growing families cover the other
classification tags and the not-diverging verdict.
"""

import numpy as np
import pytest

from towerlab import conjugate, jssolver, limits
from towerlab.analytic import ScherkSquare, scherk_value
from towerlab.conjugate import flux
from towerlab.limits import (
    CandidateTrace,
    DivergenceReport,
    NotSpecial,
    QOutsideConvergenceDomain,
    SequenceExperiment,
    TAG_DOUBLY,
    TAG_KMR,
    TAG_MRT,
    TAG_SADDLE,
    TAG_SINGLY,
    VERDICT_DIVERGING,
    VERDICT_NOT_DIVERGING,
    VERDICT_UNDECIDED,
    detect_divergence,
    divergence_candidates,
    normalized_limit,
    rhombus_decomposition,
    sequence_report,
    solve_sequence,
    write_sequence_csv,
)
from towerlab.meshing import triangulate
from towerlab.polygon import (
    MarkedPolygon,
    classify_limit,
    from_vertices,
    near_special_hexagon,
    parity_distance_condition,
    regular_polygon,
    split_rectangle,
    unit_square,
)

HONEST_CAUCHY_TOL = 2e-2
DELTAS = (0.4, 0.2, 0.1, 0.05)

HEX_CENTER = (0.5, 0.8660254037844386)


def wide_rectangle(k):
    """[-k, k+1] x [0, 1] rectangle split into unit edges, pinned at (0,0)."""
    verts = [(x, 0.0) for x in range(0, k + 2)]
    verts += [(x, 1.0) for x in range(k + 1, -k - 1, -1)]
    verts += [(x, 0.0) for x in range(-k, 0)]
    return from_vertices(verts)


@pytest.fixture(scope="module")
def hdelta_seq():
    polys = [near_special_hexagon(d) for d in DELTAS]
    return solve_sequence(polys, h=0.05, g=0.25, cauchy_tol=HONEST_CAUCHY_TOL,
                          probes=[(0.5, 0.5)])


@pytest.fixture(scope="module")
def hdelta_report(hdelta_seq):
    return detect_divergence(hdelta_seq)


@pytest.fixture(scope="module")
def hex_const_seq():
    return solve_sequence([regular_polygon(3)] * 3, h=0.1, g=0.5,
                          cauchy_tol=HONEST_CAUCHY_TOL, probes=[HEX_CENTER])


@pytest.fixture(scope="module")
def grow_seq():
    # lateral extents clear one unit edge only once the 14-gon joins,
    # so this family classifies as a halfplane while n = 3..6 alone
    # stays an unbounded polygon
    return solve_sequence([regular_polygon(n) for n in (3, 4, 5, 6, 7)],
                          h=0.15, g=0.5, cauchy_tol=HONEST_CAUCHY_TOL)


@pytest.fixture(scope="module")
def strip_seq():
    return solve_sequence([wide_rectangle(k) for k in (1, 2, 3)], h=0.2, g=1.0,
                          cauchy_tol=HONEST_CAUCHY_TOL)


# ---------------------------------------------------------------------------
# candidates

def test_split_rectangle_has_one_candidate():
    lim = classify_limit([split_rectangle(3)] * 3, tol=0.05)
    cands = divergence_candidates(lim)
    assert len(cands) == 1
    seg = np.asarray(cands[0])
    assert np.allclose(sorted(seg.tolist()), [[0.0, 1.0], [1.0, 1.0]], atol=1e-12)


def test_parity_condition_domains_have_no_candidates():
    for poly in (unit_square(), regular_polygon(3), regular_polygon(4)):
        assert parity_distance_condition(poly)
        lim = classify_limit([poly] * 3, tol=0.05)
        assert divergence_candidates(lim) == []


def test_square_diagonals_blocked_by_parity():
    # diagonal pairs sit within a sloppy tol of distance 1 but share parity
    lim = classify_limit([unit_square()] * 3, tol=0.05)
    assert divergence_candidates(lim, tol=0.5) == []


def test_cyclic_neighbors_are_adjacent():
    # (0,0)-(0,1) in the split rectangle is a boundary edge, not a candidate
    lim = classify_limit([split_rectangle(3)] * 3, tol=0.05)
    cands = divergence_candidates(lim, tol=1e-6)
    assert len(cands) == 1
    for seg in cands:
        assert not np.allclose(np.abs(np.asarray(seg)), [[0, 0], [0, 1]])


def test_hdelta_limit_is_special_split_rectangle(hdelta_seq):
    lim = hdelta_seq.limit
    assert lim.kind == "bounded-polygon"
    assert lim.special
    assert len(divergence_candidates(lim)) == 1


# ---------------------------------------------------------------------------
# divergence detection on the collapsing hexagon family

def test_members_all_stabilize(hdelta_seq):
    caps = tuple(s.report.stabilized_cap for _, s in hdelta_seq.members)
    assert caps == (3.0, 3.0, 4.0, 5.0)


def test_probes_recorded(hdelta_seq):
    assert hdelta_seq.probes == ((0.5, 0.5),)


def test_candidate_verdict_diverging(hdelta_report):
    assert len(hdelta_report.candidates) == 1
    assert hdelta_report.candidates[0].verdict == VERDICT_DIVERGING


def test_flux_ratio_saturates(hdelta_report):
    tr = hdelta_report.candidates[0]
    ratios = np.abs(tr.flux_ratio)
    assert ratios[-1] >= 0.95
    assert np.all(np.diff(ratios) > 0)
    # the conjugate flux along a path never beats its length by more
    # than the discretization slack
    assert ratios.max() <= 1.0 + 0.03


def test_sup_gradient_grows(hdelta_report):
    grads = np.asarray(hdelta_report.candidates[0].sup_grad)
    assert np.all(np.diff(grads[-3:]) > 0)
    assert grads[-1] >= 10.0


def test_probe_gradient_stays_bounded(hdelta_report):
    # (1/2, 1/2) sits inside the lower rhombus of the convergence domain
    assert hdelta_report.probe_gradients.shape == (4, 1)
    assert hdelta_report.probe_gradients.max() <= 0.5


def test_thresholds_echoed(hdelta_report):
    assert hdelta_report.flux_slack == 0.05
    assert hdelta_report.grad_bound == 50.0
    assert hdelta_report.shrink == 0.05


def test_detect_needs_three_members(hdelta_seq):
    short = SequenceExperiment(members=hdelta_seq.members[:2],
                               limit=hdelta_seq.limit)
    with pytest.raises(ValueError):
        detect_divergence(short)


@pytest.mark.parametrize("shrink", [-0.2, 0.0, 0.5, 0.6])
def test_detect_rejects_shrink_out_of_range(hex_const_seq, shrink):
    # a negative shrink extends the segment past its vertices, out of the
    # mesh, and zero ends it on them; 0.5 and beyond collapse or flip it
    with pytest.raises(ValueError, match="shrink"):
        detect_divergence(hex_const_seq, shrink=shrink)


def test_not_diverging_verdict(hex_const_seq):
    # hexagon diagonals join different-parity vertices at distance 2; a
    # deliberately sloppy tol turns them into candidates that the bounded
    # gradients then clear
    rep = detect_divergence(hex_const_seq, tol=1.01)
    assert len(rep.candidates) == 3
    for tr in rep.candidates:
        assert tr.verdict == VERDICT_NOT_DIVERGING
        assert max(tr.sup_grad) <= 50.0


def test_undecided_verdict(hdelta_seq):
    # reversed member order breaks monotonicity while a tightened gradient
    # bound blocks the not-diverging escape
    rev = SequenceExperiment(members=hdelta_seq.members[::-1],
                             limit=hdelta_seq.limit)
    rep = detect_divergence(rev, grad_bound=5.0)
    assert rep.candidates[0].verdict == VERDICT_UNDECIDED


def test_hexagon_family_no_candidates(hex_const_seq):
    rep = detect_divergence(hex_const_seq)
    assert rep.candidates == ()
    assert rep.probe_gradients.max() <= 1e-9


# ---------------------------------------------------------------------------
# rhombus decompositions

def test_split_rectangle_two_unit_squares():
    lim = classify_limit([split_rectangle(3)] * 3, tol=0.05)
    rd = rhombus_decomposition(lim)
    assert len(rd.rhombi) == 2
    assert rd.translation is None
    r1, r2 = (np.asarray(r) for r in rd.rhombi)
    assert np.allclose(r1, [[0, 0], [1, 0], [1, 1], [0, 1]], atol=1e-9)
    assert np.allclose(r2, [[0, 1], [1, 1], [1, 2], [0, 2]], atol=1e-9)
    # consecutive rhombi share the full sliced edge
    assert np.allclose(r1[[3, 2]], r2[[0, 1]], atol=1e-12)


def test_split_rectangle_three_squares():
    lim = classify_limit([split_rectangle(4)] * 3, tol=0.05)
    rd = rhombus_decomposition(lim)
    assert len(rd.rhombi) == 3
    for k, r in enumerate(rd.rhombi):
        assert np.allclose(r, [[0, k], [1, k], [1, k + 1], [0, k + 1]], atol=1e-9)


def test_rhombi_edges_unit_and_areas_tile(hdelta_seq):
    lim = hdelta_seq.limit
    rd = rhombus_decomposition(lim)
    assert len(rd.rhombi) == 2
    total = 0.0
    for r in rd.rhombi:
        q = np.asarray(r)
        sides = np.roll(q, -1, axis=0) - q
        assert np.abs(np.hypot(sides[:, 0], sides[:, 1]) - 1.0).max() <= 1e-4
        x, y = q[:, 0], q[:, 1]
        total += 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
    v = np.asarray(lim.vertices)
    x, y = v[:, 0], v[:, 1]
    poly_area = 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
    assert abs(total - poly_area) <= 1e-9


def test_unbounded_special_generator():
    lim = classify_limit([split_rectangle(n) for n in (3, 4, 5, 6)], tol=0.05)
    assert lim.kind == "unbounded-polygon"
    assert lim.special
    rd = rhombus_decomposition(lim)
    assert len(rd.rhombi) == 1
    assert np.allclose(rd.rhombi[0], [[0, 0], [1, 0], [1, 1], [0, 1]], atol=1e-9)
    assert np.allclose(rd.translation, [0.0, 1.0], atol=1e-9)


def test_not_special_raises(grow_seq):
    lim = classify_limit([regular_polygon(3)] * 3, tol=0.05)
    with pytest.raises(NotSpecial):
        rhombus_decomposition(lim)
    with pytest.raises(NotSpecial):
        rhombus_decomposition(grow_seq.limit)


# ---------------------------------------------------------------------------
# normalized limits and tags

def test_hdelta_matches_doubly_periodic_piece(hdelta_seq):
    nl = normalized_limit(hdelta_seq, (0.5, 0.5), 0.6)
    assert nl.tag == TAG_DOUBLY
    assert nl.member_index == 3
    sq = ScherkSquare()
    pts = nl.points.reshape(-1, 2)
    S = scherk_value(sq, pts).reshape(nl.values.shape)
    S -= scherk_value(sq, (0.5, 0.5))
    err = np.abs(nl.values - S)
    # measured 1.19e-2 at delta = 0.05, cap 5, h = 0.05; worst at the
    # window edge facing the forming line
    assert err.max() <= 0.015


def test_anchor_near_candidate_rejected(hdelta_seq):
    with pytest.raises(QOutsideConvergenceDomain):
        normalized_limit(hdelta_seq, (0.5, 0.95), 0.3)


def test_anchor_named_in_plain_floats(hdelta_seq):
    with pytest.raises(QOutsideConvergenceDomain, match=r"^anchor \(0\.5, 0\.95\) within"):
        normalized_limit(hdelta_seq, (0.5, 0.95), 0.3)


def test_anchor_value_is_zero(hex_const_seq):
    nl = normalized_limit(hex_const_seq, HEX_CENTER, (HEX_CENTER, 0.6))
    mid = nl.values.shape[0] // 2
    assert abs(nl.values[mid, mid]) <= 1e-12


def test_anchor_shift_is_constant(hex_const_seq):
    nl1 = normalized_limit(hex_const_seq, HEX_CENTER, (HEX_CENTER, 0.6))
    nl2 = normalized_limit(hex_const_seq, (0.62, 0.74), (HEX_CENTER, 0.6))
    d = nl1.values - nl2.values
    assert d.max() - d.min() <= 1e-12


def test_constant_hexagon_tag(hex_const_seq):
    nl = normalized_limit(hex_const_seq, HEX_CENTER, 0.5)
    assert nl.tag == TAG_SADDLE


def test_halfplane_family_tag(grow_seq):
    assert grow_seq.limit.kind == "halfplane"
    nl = normalized_limit(grow_seq, (0.5, 0.3), 0.4)
    assert nl.tag == TAG_SINGLY


def test_truncated_growth_family_tag(grow_seq):
    # through the 12-gon the lateral extents grow by 0.866 < 1, so the
    # same members classify as an unbounded polygon and the tag changes
    polys = [p for p, _ in grow_seq.members[:4]]
    lim = classify_limit(polys, tol=0.05)
    assert lim.kind == "unbounded-polygon"
    assert not lim.special
    e = SequenceExperiment(members=grow_seq.members[:4], limit=lim)
    nl = normalized_limit(e, (0.5, 0.3), 0.4)
    assert nl.tag == TAG_MRT


def test_strip_family_tag(strip_seq):
    assert strip_seq.limit.kind == "strip"
    nl = normalized_limit(strip_seq, (0.5, 0.5), 0.3)
    assert nl.tag == TAG_KMR


def test_window_grid_geometry(hex_const_seq):
    nl = normalized_limit(hex_const_seq, HEX_CENTER, 0.6, grid=11)
    assert nl.points.shape == (11, 11, 2)
    assert nl.values.shape == (11, 11)
    assert np.allclose(nl.points[0, 0], np.asarray(HEX_CENTER) - 0.3)
    assert np.allclose(nl.points[-1, -1], np.asarray(HEX_CENTER) + 0.3)


# ---------------------------------------------------------------------------
# experiment plumbing

def test_solve_sequence_rejects_empty():
    with pytest.raises(ValueError):
        solve_sequence([], h=0.2, g=1.0)


def test_solve_sequence_rejects_unnormalized():
    sq = unit_square()
    shifted = MarkedPolygon(np.asarray(sq.vertices) + (0.25, 0.0), sq.markings)
    with pytest.raises(ValueError):
        solve_sequence([shifted], h=0.2, g=1.0)


def test_sequence_integrates_no_conjugate(monkeypatch):
    # members carry no conjugate field: the report's loop defect is read
    # off the triangle circulations, which need no spanning tree
    calls = []
    real = conjugate._integrate

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(conjugate, "_integrate", counting)
    e = solve_sequence([regular_polygon(3)] * 3, h=0.2, g=1.0,
                       cauchy_tol=HONEST_CAUCHY_TOL)
    sequence_report(e, detect_divergence(e))
    assert calls == []


def test_report_loop_defect_is_conjugate_field_defect(hdelta_seq, hdelta_report):
    rep = sequence_report(hdelta_seq, hdelta_report)
    for row, (_, sol) in zip(rep["members"], hdelta_seq.members):
        assert row["loop_defect"] == conjugate.conjugate_function(sol).loop_defect


def test_fallback_keeps_deepest_cap(grow_seq):
    # the 8-gon member refuses to stabilize at this resolution; the
    # sequence keeps its cap-6 solve instead of raising
    _, sol = grow_seq.members[1]
    assert sol.report.stabilized_cap is None
    assert sol.cap == 6.0


def test_fallback_reuses_the_ladder(monkeypatch):
    # a member that never stabilizes keeps the final rung solve_js already
    # made instead of running the whole ladder again
    caps = (2.0, 3.0, 4.0, 5.0, 6.0)
    poly = split_rectangle(3)
    calls = []
    solve_capped = jssolver.solve_capped

    def counting(*args, **kwargs):
        calls.append(args[1])
        return solve_capped(*args, **kwargs)

    monkeypatch.setattr(jssolver, "solve_capped", counting)
    _, sol = limits._solve_member(poly, 0.1, 0.5, caps, jssolver.DEFAULT_TOL,
                                  HONEST_CAUCHY_TOL)
    assert calls == list(caps)
    monkeypatch.undo()
    mesh = triangulate(poly, 0.1, 0.5)
    want = jssolver.last_capped(mesh, caps=caps)[-1]
    assert sol.cap == 6.0 and sol.report.stabilized_cap is None
    assert np.array_equal(sol.u, want.u)


def test_flux_against_conjugate_module(hdelta_seq, hdelta_report):
    # report rows must equal direct flux calls on the shrunk segment
    tr = hdelta_report.candidates[0]
    a, b = np.asarray(tr.segment)
    a2, b2 = a + 0.05 * (b - a), b - 0.05 * (b - a)
    for i, (_, sol) in enumerate(hdelta_seq.members):
        direct = flux(sol, [tuple(a2), tuple(b2)])
        assert abs(direct - tr.flux[i]) <= 1e-12


# ---------------------------------------------------------------------------
# reports

def test_sequence_report_shape(hdelta_seq, hdelta_report):
    rep = sequence_report(hdelta_seq, hdelta_report)
    assert rep["limit_kind"] == "bounded-polygon"
    assert rep["limit_special"] is True
    assert len(rep["members"]) == 4
    assert rep["members"][3]["stabilized_cap"] == 5.0
    assert len(rep["candidates"]) == 1
    assert rep["candidates"][0]["verdict"] == VERDICT_DIVERGING
    assert rep["thresholds"]["grad_bound"] == 50.0
    assert rep["probes"] == [[0.5, 0.5]]


def test_sequence_csv_deterministic(hdelta_seq, hdelta_report, tmp_path):
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_sequence_csv(hdelta_seq, hdelta_report, p1)
    write_sequence_csv(hdelta_seq, hdelta_report, p2)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    lines = b1.decode().splitlines()
    assert lines[0] == "member,edges,cap,stabilized_cap,flux_0,flux_ratio_0,sup_grad_0,probe_grad_0"
    assert len(lines) == 5
