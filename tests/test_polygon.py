"""Geometry layer tests.

Frozen expected values come from hand trigonometry: regular 2n-gon vertices
lie on a circle of radius 1/(2 sin(pi/2n)), the near-rectangular hexagon
family has explicit sin/cos coordinates, the split rectangle is a 1 x (n-1)
box with unit subdivisions.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from towerlab.jssolver import DEFAULT_CORE_MARGIN, core_mask

from towerlab.polygon import (
    BadMarkingParity,
    KIND_BOUNDED,
    KIND_HALFPLANE,
    KIND_STRIP,
    KIND_UNBOUNDED,
    NonClosing,
    NotConvex,
    UndecidedLimit,
    _snap_to_unit_edges,
    area,
    boundary_distance,
    boundary_distance_many,
    classify_limit,
    contains,
    contains_many,
    dump_domain,
    from_turning_angles,
    from_vertices,
    is_special,
    load_domain,
    near_special_hexagon,
    parity_distance_condition,
    perimeter,
    regular_polygon,
    split_rectangle,
    to_turning_angles,
    unit_square,
)


def test_unit_square():
    sq = unit_square()
    assert np.allclose(sq.vertices, [[0, 0], [1, 0], [1, 1], [0, 1]], atol=1e-12)
    assert list(sq.markings) == [1, -1, 1, -1]
    assert abs(area(sq) - 1.0) < 1e-12
    assert abs(perimeter(sq) - 4.0) < 1e-12
    assert contains(sq, (0.5, 0.5))
    assert not contains(sq, (1.1, 0.5))
    assert abs(boundary_distance(sq, (0.5, 0.5)) - 0.5) < 1e-12


def test_regular_hexagon_frozen_vertices():
    hexa = regular_polygon(3)
    r3 = math.sqrt(3.0)
    want = [[0, 0], [1, 0], [1.5, r3 / 2], [1, r3], [0, r3], [-0.5, r3 / 2]]
    assert np.allclose(hexa.vertices, want, atol=1e-12)
    assert abs(area(hexa) - 3 * r3 / 2) < 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 12])
def test_regular_polygon_on_circumcircle(n):
    p = regular_polygon(n)
    radius = 1.0 / (2.0 * math.sin(math.pi / (2 * n)))
    apothem = 0.5 / math.tan(math.pi / (2 * n))
    center = np.array([0.5, apothem])
    d = np.linalg.norm(p.vertices - center, axis=1)
    assert np.max(np.abs(d - radius)) < 1e-10
    lens = np.linalg.norm(p.edge_vectors(), axis=1)
    assert np.max(np.abs(lens - 1.0)) < 1e-12


def test_split_rectangle_frozen():
    r = split_rectangle(3)
    want = [[0, 0], [1, 0], [1, 1], [1, 2], [0, 2], [0, 1]]
    assert np.allclose(r.vertices, want, atol=1e-12)
    assert abs(area(r) - 2.0) < 1e-12
    assert is_special(r)
    assert is_special(split_rectangle(4))
    assert not is_special(regular_polygon(3))
    assert not is_special(unit_square())


def test_near_special_hexagon_frozen():
    d = 0.4
    s, c = math.sin(d / 2), math.cos(d / 2)
    h = near_special_hexagon(d)
    want = [[0, 0], [1, 0], [1 + s, c], [1, 2 * c], [0, 2 * c], [-s, c]]
    assert np.allclose(h.vertices, want, atol=1e-12)
    # central symmetry about the centroid
    ctr = h.vertices.mean(axis=0)
    assert np.allclose(2 * ctr - h.vertices, np.roll(h.vertices, 3, axis=0), atol=1e-12)


def test_parity_distance_condition():
    assert parity_distance_condition(unit_square())
    assert parity_distance_condition(regular_polygon(3))
    assert parity_distance_condition(near_special_hexagon(0.1))
    # opposite unit sides at distance exactly 1 violate the strict inequality
    assert not parity_distance_condition(split_rectangle(3))
    assert not parity_distance_condition(split_rectangle(5))


def test_normalization_of_transformed_input():
    sq = unit_square()
    th = 0.7
    rot = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
    moved = sq.vertices @ rot.T + np.array([3.0, -2.0])
    back = from_vertices(moved)
    assert np.allclose(back.vertices, sq.vertices, atol=1e-9)


def test_from_vertices_rejections():
    with pytest.raises(NonClosing):
        from_vertices([[0, 0], [2, 0], [2, 1], [0, 1]])
    with pytest.raises(BadMarkingParity):
        from_vertices([[0, 0], [1, 0], [0.5, math.sqrt(3) / 2]])
    sq = unit_square()
    with pytest.raises(NotConvex):
        from_vertices(sq.vertices[::-1])
    # reflex hexagon with all unit edges
    r3 = math.sqrt(3.0)
    dent = [[0, 0], [1, 0], [1.5, r3 / 2], [0.5, r3 / 2], [0, r3], [-0.5, r3 / 2]]
    with pytest.raises((NotConvex, NonClosing)):
        from_vertices(dent)


def test_from_turning_angles_rejections():
    with pytest.raises(NotConvex):
        from_turning_angles([math.pi / 2] * 3 + [math.pi / 3])
    with pytest.raises(NotConvex):
        from_turning_angles([math.pi / 2, -0.1, math.pi / 2, math.pi / 2, 0.1, math.pi / 2])
    with pytest.raises(NonClosing):
        from_turning_angles([2.0, 2.0, 0.3, 0.3, 0.9, 2 * math.pi - 5.5])


@pytest.mark.parametrize("make", [unit_square, lambda: regular_polygon(4),
                                  lambda: split_rectangle(3), lambda: near_special_hexagon(0.3)])
def test_turning_angle_round_trip(make):
    p = make()
    a = to_turning_angles(p)
    q = from_turning_angles(a)
    assert np.allclose(p.vertices, q.vertices, atol=1e-9)
    assert abs(sum(a) - 2 * math.pi) < 1e-9


def test_domain_file_round_trip(tmp_path):
    path = tmp_path / "dom.txt"
    p = near_special_hexagon(0.25)
    dump_domain(path, p, name="h025")
    q, qname = load_domain(path)
    assert qname == "h025"
    assert np.allclose(p.vertices, q.vertices, atol=1e-9)
    bad = tmp_path / "bad.txt"
    bad.write_text("n = 3\nangles = 1, 2\n")
    with pytest.raises(Exception) as err:
        load_domain(bad)
    assert "angles" in str(err.value)


def test_domain_file_closure_pinned(tmp_path):
    # six-decimal angles miss closure by ~1e-6; the Newton projection
    # closes the walk, and these bytes pin where it lands
    path = tmp_path / "hand.txt"
    path.write_text("name = hand\nn = 3\n"
                    "angles = 1.520796, 0.1, 1.520797, 1.520796, 0.1, 1.520797\n")
    p, name = load_domain(path)
    assert name == "hand"
    assert hashlib.sha256(np.asarray(p.vertices).tobytes()).hexdigest() == (
        "4fd4bcf9a600376dd94518fe7a478c3f3ff8d1780d91efd48cd8f1b7646ad072")


def test_snap_to_unit_edges_pinned():
    v = np.asarray(near_special_hexagon(0.3).vertices)
    noisy = v + 1e-7 * np.random.default_rng(7).standard_normal(v.shape)
    snapped = _snap_to_unit_edges(noisy)
    assert np.abs(snapped - noisy).max() < 1e-6
    assert hashlib.sha256(snapped.tobytes()).hexdigest() == (
        "3abbcaa184b67163a64397705e0f0c74e175b88b5801bfa394cb0bdd8852e5eb")


@st.composite
def symmetric_turning_angles(draw):
    # centrally symmetric convex equilateral polygon: edge directions come in
    # antipodal pairs, so closure is automatic
    n = draw(st.integers(2, 5))
    extra = draw(st.lists(st.floats(0.25, math.pi - 0.25), min_size=n - 1, max_size=n - 1))
    dirs = sorted([0.0] + list(extra))
    dirs = dirs + [d + math.pi for d in dirs]
    turns = [dirs[(i + 1) % (2 * n)] - dirs[i] for i in range(2 * n)]
    turns[-1] += 2 * math.pi
    return turns


@settings(max_examples=60, deadline=None)
@given(symmetric_turning_angles())
def test_random_symmetric_polygons(turns):
    p = from_turning_angles(turns)
    assert p.edge_count == len(turns)
    assert abs(perimeter(p) - len(turns)) < 1e-9
    assert area(p) > 0
    centroid = p.vertices.mean(axis=0)
    assert contains(p, centroid)
    back = to_turning_angles(p)
    assert np.allclose(np.asarray(back), np.asarray(turns), atol=1e-8)
    assert list(p.markings) == [1, -1] * p.n


# --- limit classification -------------------------------------------------

def wide_rectangle(k):
    """Rectangle [-k, k] x [0, 1] with unit subdivisions, pinned mid-bottom."""
    pts = [(float(i), 0.0) for i in range(0, k + 1)]
    pts += [(float(k), 1.0)]
    pts += [(float(i), 1.0) for i in range(k - 1, -k - 1, -1)]
    pts += [(-float(k), 0.0)]
    pts += [(float(i), 0.0) for i in range(-k + 1, 0)]
    return from_vertices(pts)


def test_classify_constant_sequence_is_bounded():
    seq = [regular_polygon(3)] * 3
    lim = classify_limit(seq, tol=0.05)
    assert lim.kind == KIND_BOUNDED
    assert lim.polygon is not None
    assert np.allclose(lim.polygon.vertices, seq[0].vertices, atol=1e-9)
    assert not lim.special


def test_classify_hexagon_family_hits_split_rectangle():
    seq = [near_special_hexagon(d) for d in (0.4, 0.2, 0.1, 0.05)]
    lim = classify_limit(seq, tol=0.05)
    assert lim.kind == KIND_BOUNDED
    assert lim.special
    assert lim.polygon is not None
    assert np.allclose(lim.polygon.vertices, split_rectangle(3).vertices, atol=5e-3)


@pytest.mark.parametrize("top", [8, 10, 12])
def test_classify_growing_gons_as_halfplane(top):
    seq = [regular_polygon(n) for n in range(3, top + 1)]
    lim = classify_limit(seq, tol=0.35)
    assert lim.kind == KIND_HALFPLANE
    assert len(lim.rays) == 2


def test_classify_growing_rectangles_special_unbounded():
    seq = [split_rectangle(n) for n in range(3, 9)]
    lim = classify_limit(seq, tol=0.2)
    assert lim.kind == KIND_UNBOUNDED
    assert lim.special
    assert len(lim.rays) == 2
    d0 = lim.rays[0].direction
    d1 = lim.rays[1].direction
    assert abs(d0 @ d1 - 1.0) < 1e-9  # parallel, same direction


def test_classify_widening_slab_as_strip():
    seq = [wide_rectangle(k) for k in (2, 3, 4, 5)]
    lim = classify_limit(seq, tol=0.2)
    assert lim.kind == KIND_STRIP
    d0 = lim.rays[0].direction
    d1 = lim.rays[1].direction
    assert abs(d0 @ d1 + 1.0) < 1e-9  # opposite horizontal rays


def test_classify_undecided_cases():
    with pytest.raises(UndecidedLimit):
        classify_limit([unit_square()], tol=0.1)
    with pytest.raises(UndecidedLimit):
        classify_limit([unit_square(), regular_polygon(3)], tol=0.05)
    # two members, growth below one unit edge, no stabilization
    with pytest.raises(UndecidedLimit):
        classify_limit([regular_polygon(3), regular_polygon(4)], tol=0.35)
    osc = [regular_polygon(3), near_special_hexagon(0.4), regular_polygon(3)]
    with pytest.raises(UndecidedLimit):
        classify_limit(osc, tol=0.05)


def test_marked_polygon_is_frozen():
    sq = unit_square()
    with pytest.raises(Exception):
        sq.vertices[0, 0] = 5.0


# ---------------------------------------------------------------------------
# batch predicates against the per-point formulas they replace

def _contains_one(p, q, tol):
    v = p.vertices
    e = np.roll(v, -1, axis=0) - v
    rel = np.asarray(q, dtype=float) - v
    cross = e[:, 0] * rel[:, 1] - e[:, 1] * rel[:, 0]
    return bool((cross >= -tol).all())


def _boundary_distance_one(p, q):
    q = np.asarray(q, dtype=float)
    v = p.vertices
    e = np.roll(v, -1, axis=0) - v
    rel = q - v
    t = np.clip((rel * e).sum(axis=1) / (e * e).sum(axis=1), 0.0, 1.0)
    foot = v + t[:, None] * e
    return float(np.hypot(*(q - foot).T).min())


def _probe_points(p, seed=7):
    """Random points around p, its vertices, points on and just off its edges."""
    rng = np.random.default_rng(seed)
    v = p.vertices
    e = np.roll(v, -1, axis=0) - v
    lo, hi = v.min(axis=0) - 0.5, v.max(axis=0) + 0.5
    spread = lo + rng.random((400, 2)) * (hi - lo)
    t = rng.random((len(v), 8))
    on_edge = (v[:, None, :] + t[:, :, None] * e[:, None, :]).reshape(-1, 2)
    normal = np.column_stack([-e[:, 1], e[:, 0]])  # points inward (CCW)
    mids = v + 0.5 * e
    off_edge = [mids + k * normal for k in (-2e-12, -5e-13, 5e-13, 2e-12, -0.3)]
    return np.vstack([spread, v, on_edge, *off_edge])


@pytest.mark.parametrize("poly", [unit_square(), regular_polygon(3),
                                  near_special_hexagon(0.05)],
                         ids=["square", "hexagon", "near-special"])
@pytest.mark.parametrize("tol", [1e-12, -1e-12])
def test_contains_many_matches_per_point_formula(poly, tol):
    pts = _probe_points(poly)
    want = np.array([_contains_one(poly, q, tol) for q in pts])
    got = contains_many(poly, pts, tol)
    assert got.shape == (len(pts),) and got.dtype == bool
    assert np.array_equal(got, want)
    assert [contains(poly, q, tol) for q in pts] == want.tolist()
    assert want.any() and not want.all()


@pytest.mark.parametrize("poly", [unit_square(), regular_polygon(3),
                                  near_special_hexagon(0.05)],
                         ids=["square", "hexagon", "near-special"])
def test_boundary_distance_many_matches_per_point_formula(poly):
    pts = _probe_points(poly)
    want = np.array([_boundary_distance_one(poly, q) for q in pts])
    got = boundary_distance_many(poly, pts)
    assert got.shape == (len(pts),)
    assert np.array_equal(got, want)
    assert [boundary_distance(poly, q) for q in pts] == want.tolist()


def test_tol_sign_decides_edge_points():
    sq = unit_square()
    on_edge = np.array([[0.5, 0.0], [1.0, 0.25], [0.0, 0.0]])
    assert contains_many(sq, on_edge, 1e-12).all()
    assert not contains_many(sq, on_edge, -1e-12).any()
    assert contains_many(sq, np.empty((0, 2))).shape == (0,)


def test_core_mask_matches_per_node_formula(hex_mesh):
    want = np.array([_boundary_distance_one(hex_mesh.polygon, q) >= DEFAULT_CORE_MARGIN
                     for q in hex_mesh.nodes])
    assert np.array_equal(core_mask(hex_mesh), want)
