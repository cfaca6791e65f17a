"""Degenerate-input and bit-equivalence tests for the array kernels.

:mod:`repro.geometry.kernels` promises *bit-identical* results to the
scalar geometry layer — not "close", identical — because the engine's
``compute="kernel"`` mode must reproduce every pruning decision, clip and
counter of the scalar oracle byte for byte.  These tests attack the
promise where floating point is most treacherous:

* coincident sites (zero-length bisector normals);
* exactly-colinear bisectors — the pinned degenerate input of
  ``tests/join/test_boundary_ties.py``, where two cells touch in a
  zero-area segment;
* clips whose output collapses to fewer than three vertices (empty or
  single-corner contact);
* near-colinear random inputs via hypothesis, where the scalar and a
  naively reassociated vectorised formula would round differently.
"""

from __future__ import annotations

import math
import random

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import DOMAIN, uniform_points
from repro.datasets.workload import build_indexed_pointset
from repro.geometry import kernels as gk
from repro.geometry.halfplane import Halfplane, bisector_halfplane
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.tolerance import BOUNDARY_EPS
from repro.storage.disk import DiskManager
from repro.voronoi.batch import compute_voronoi_cells
from repro.voronoi.single import CellComputationStats
from tests.join.test_boundary_ties import (
    EXPECTED_PAIRS,
    POINTS_P,
    POINTS_Q,
)

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def scalar_clip(ring, a, b, c):
    """The scalar oracle: ``ConvexPolygon.clip_halfplane`` on a tuple ring."""
    clipped = gk.polygon_from_ring(ring).clip_halfplane(Halfplane(a, b, c))
    return [(v.x, v.y) for v in clipped.vertices]


def indexed(points):
    disk = DiskManager()
    tree = build_indexed_pointset(disk, "RP", points, domain=DOMAIN)
    return disk, tree


def cells_fingerprint(cells):
    """Exact vertex tuples per oid (bit-identical comparison)."""
    return {
        oid: tuple((v.x, v.y) for v in cell.polygon.vertices)
        for oid, cell in cells.items()
    }


class TestCoincidentSites:
    def test_coincident_points_have_no_bisector(self):
        """The scalar layer refuses ``⊥(p, p)``; the kernels never build it
        either (coincident sites are masked out of the candidate set), so
        the contract to pin is the explicit rejection."""
        p = Point(3.25, 4.75)
        with pytest.raises(ValueError):
            bisector_halfplane(p, p)

    def test_zero_normal_halfplane_clip_matches_scalar(self):
        """A degenerate zero-normal halfplane ``0*x + 0*y <= c``: both
        layers fall back to the coefficient-scaled tolerance, keeping the
        ring for ``c >= 0`` and emptying it for ``c < -tol``."""
        ring = list(UNIT_SQUARE)
        for c, expected in [(0.0, ring), (5.0, ring), (-1.0, [])]:
            assert gk.clip_ring(ring, 0.0, 0.0, c) == expected
            assert scalar_clip(ring, 0.0, 0.0, c) == expected
            arr = gk.clip_halfplane_array(
                np.array(ring, dtype=np.float64), 0.0, 0.0, c
            )
            assert [tuple(v) for v in arr] == expected

    def test_batch_group_with_coincident_sites(self):
        """Two group members sharing one site: each must skip the other as
        a refiner (a site never clips its own location), identically in
        both compute modes — cells and every counter."""
        points = uniform_points(80, seed=41)
        points.append(points[12])  # exact duplicate of an existing site
        _, tree = indexed(points)
        group = [(12, points[12]), (80, points[80]), (30, points[30])]
        scalar_stats, kernel_stats = CellComputationStats(), CellComputationStats()
        scalar = compute_voronoi_cells(
            tree, group, DOMAIN, stats=scalar_stats, compute="scalar"
        )
        kernel = compute_voronoi_cells(
            tree, group, DOMAIN, stats=kernel_stats, compute="kernel"
        )
        assert cells_fingerprint(kernel) == cells_fingerprint(scalar)
        assert vars(kernel_stats) == vars(scalar_stats)
        # The duplicate members really do share the (possibly degenerate)
        # cell rather than annihilating each other.
        assert scalar[12].polygon.vertices == scalar[80].polygon.vertices


class TestColinearBisectors:
    """The pinned input of ``test_boundary_ties``: the bisector of the two
    P points and the bisector of Q1/Q2 both fall exactly on x = 203.625."""

    def test_colinear_bisector_clip_is_bit_identical(self):
        domain_ring = gk.ring_of_rect(Rect(0.0, 0.0, 10_000.0, 10_000.0))
        for p, q in [(POINTS_P[0], POINTS_P[1]), (POINTS_Q[1], POINTS_Q[2])]:
            hp = bisector_halfplane(p, q)
            kernel = gk.clip_ring(domain_ring, hp.a, hp.b, hp.c)
            assert kernel == scalar_clip(domain_ring, hp.a, hp.b, hp.c)
            # Both clips keep the domain's left edge and cut exactly on the
            # shared vertical line x = 203.625.
            assert {x for x, _ in kernel} == {0.0, 203.625}

    def test_zero_area_contact_excluded_by_open_sat(self):
        """The two half-domains meeting on x = 203.625 intersect under the
        closed SAT but not the open one, exactly like the scalar pair."""
        domain = Rect(0.0, 0.0, 407.25, 67.0)
        ring = gk.ring_of_rect(domain)
        left_hp = bisector_halfplane(POINTS_P[0], POINTS_P[1])
        right_hp = bisector_halfplane(POINTS_P[1], POINTS_P[0])
        left = np.array(gk.clip_ring(ring, left_hp.a, left_hp.b, left_hp.c))
        right = np.array(gk.clip_ring(ring, right_hp.a, right_hp.b, right_hp.c))
        assert gk.sat_intersects(left, right, boundary_counts=True)
        assert not gk.sat_intersects(left, right, boundary_counts=False)
        scalar_left = gk.polygon_from_array(left)
        scalar_right = gk.polygon_from_array(right)
        assert scalar_left.intersects(scalar_right)
        assert not scalar_left.intersects_interior(scalar_right)

    @pytest.mark.parametrize("method", ["nm", "pm", "fm"])
    def test_join_on_pinned_input_matches_scalar(self, method):
        from repro import common_influence_join

        domain = Rect(0.0, 0.0, 10_000.0, 10_000.0)
        scalar = common_influence_join(
            POINTS_P, POINTS_Q, method=method, domain=domain, compute="scalar"
        )
        kernel = common_influence_join(
            POINTS_P, POINTS_Q, method=method, domain=domain, compute="kernel"
        )
        assert kernel.pairs == scalar.pairs
        assert kernel.pair_set() == EXPECTED_PAIRS


class TestDegenerateClipResults:
    def test_fully_excluded_ring_clips_to_empty(self):
        ring = list(UNIT_SQUARE)
        # x <= -1 excludes the whole square.
        assert gk.clip_ring(ring, 1.0, 0.0, -1.0) == []
        assert scalar_clip(ring, 1.0, 0.0, -1.0) == []
        arr = gk.clip_halfplane_array(
            np.array(ring, dtype=np.float64), 1.0, 0.0, -1.0
        )
        assert arr.shape == (0, 2)

    def test_single_vertex_contact_clips_to_empty(self):
        """A halfplane touching the ring in exactly one corner: the scalar
        min-value guard empties the polygon, and so must the kernels."""
        ring = list(UNIT_SQUARE)
        # x + y <= 0 touches only the corner (0, 0).
        assert gk.clip_ring(ring, 1.0, 1.0, 0.0) == []
        assert scalar_clip(ring, 1.0, 1.0, 0.0) == []
        arr = gk.clip_halfplane_array(
            np.array(ring, dtype=np.float64), 1.0, 1.0, 0.0
        )
        assert arr.shape == (0, 2)

    def test_sub_tolerance_sliver_clips_to_empty(self):
        """A clip keeping only a sliver thinner than the boundary epsilon
        collapses to empty via the tolerance guard in both layers."""
        ring = list(UNIT_SQUARE)
        a, b, c = 1.0, 0.0, BOUNDARY_EPS / 2.0  # keep x <= eps/2
        assert gk.clip_ring(ring, a, b, c) == []
        assert scalar_clip(ring, a, b, c) == []

    @pytest.mark.parametrize("near, far", [(0.5, 1.5), (1.5, 0.5)])
    def test_endpoint_within_tolerance_does_not_extrapolate(self, near, far):
        """An edge with one endpoint inside the tolerance band and the
        other outside: both kernels clamp the crossing parameter to [0, 1]
        like the scalar clip, so the result stays inside the input MBR and
        all three agree."""
        ring = [
            (0.0, 0.0),
            (5.0 + near * BOUNDARY_EPS, 0.0),
            (5.0 + far * BOUNDARY_EPS, 10.0),
            (0.0, 10.0),
        ]
        expected = scalar_clip(ring, 1.0, 0.0, 5.0)  # x <= 5
        assert gk.clip_ring(ring, 1.0, 0.0, 5.0) == expected
        arr = gk.clip_halfplane_array(
            np.array(ring, dtype=np.float64), 1.0, 0.0, 5.0
        )
        assert [tuple(row) for row in arr.tolist()] == expected
        xmax = max(x for x, _ in ring)
        for x, y in expected:
            assert 0.0 <= x <= xmax and 0.0 <= y <= 10.0

    def test_empty_inputs_are_inert(self):
        empty = np.empty((0, 2), dtype=np.float64)
        square = np.array(UNIT_SQUARE, dtype=np.float64)
        assert gk.clip_ring([], 1.0, 0.0, 0.5) == []
        assert len(gk.clip_halfplane_array(empty, 1.0, 0.0, 0.5)) == 0
        assert not gk.sat_intersects(empty, square, boundary_counts=True)
        assert not gk.sat_intersects(square, empty, boundary_counts=True)
        assert not gk.points_in_polygon(
            empty, np.array([0.5]), np.array([0.5]), BOUNDARY_EPS
        ).any()
        ring, vdist, reach, clips = gk.refine_ring_nearest_first(
            [], 0.0, 0.0, [1.0], [1.0], [1.4], [], 0.0
        )
        assert (ring, vdist, reach, clips) == ([], [], 0.0, 0)


def scalar_refine_oracle(ring, site, others):
    """The scalar nearest-first walk (``_approximate_cell`` shape) built
    from ``ConvexPolygon``/``Halfplane`` primitives only."""
    polygon = gk.polygon_from_ring(ring)
    candidates = sorted(
        ((site.distance_to(o), o) for o in others), key=lambda pair: pair[0]
    )
    vdist = [site.distance_to(v) for v in polygon.vertices]
    reach = 2.0 * max(vdist) if vdist else 0.0
    clips = 0
    for distance, other in candidates:
        if distance > reach:
            break
        if any(other.distance_to(v) < d for v, d in zip(polygon.vertices, vdist)):
            polygon = polygon.clip_halfplane(bisector_halfplane(site, other))
            vdist = [site.distance_to(v) for v in polygon.vertices]
            reach = 2.0 * max(vdist) if vdist else 0.0
            clips += 1
            if polygon.is_empty():
                break
    return [(v.x, v.y) for v in polygon.vertices], vdist, reach, clips


def assert_refine_matches_oracle(site, others, domain):
    ring = gk.ring_of_rect(domain)
    candidates = sorted(
        ((site.distance_to(o), o) for o in others), key=lambda pair: pair[0]
    )
    ds = [d for d, _ in candidates]
    oxs = [o.x for _, o in candidates]
    oys = [o.y for _, o in candidates]
    vdist = gk.ring_distances(ring, site.x, site.y)
    reach = 2.0 * max(vdist) if vdist else 0.0
    got = gk.refine_ring_nearest_first(
        ring, site.x, site.y, oxs, oys, ds, vdist, reach
    )
    want = scalar_refine_oracle(ring, site, others)
    assert (list(got[0]), got[1], got[2], got[3]) == want


class TestNearestFirstRefinement:
    def test_random_sites_match_scalar_walk(self):
        rng = random.Random(7)
        for _ in range(25):
            site = Point(rng.uniform(0, 100), rng.uniform(0, 100))
            others = [
                Point(rng.uniform(0, 100), rng.uniform(0, 100))
                for _ in range(rng.randrange(1, 12))
            ]
            assert_refine_matches_oracle(site, others, Rect(0, 0, 100, 100))

    def test_colinear_candidates_match_scalar_walk(self):
        """All sites on one line: every bisector is parallel, successive
        clips leave slab-shaped cells."""
        site = Point(50.0, 25.0)
        others = [Point(x, 25.0) for x in (10.0, 30.0, 60.0, 80.0, 95.0)]
        assert_refine_matches_oracle(site, others, Rect(0, 0, 100, 50))

    def test_duplicate_distances_keep_candidate_order(self):
        """Equidistant candidates (exact ties in ``ds``): the kernel must
        process them in the given stable order, like the scalar loop."""
        site = Point(50.0, 50.0)
        others = [
            Point(40.0, 50.0),
            Point(60.0, 50.0),
            Point(50.0, 40.0),
            Point(50.0, 60.0),
        ]
        assert_refine_matches_oracle(site, others, Rect(0, 0, 100, 100))


coordinate = st.floats(
    min_value=0.0, max_value=512.0, allow_nan=False, allow_infinity=False
)
jitter = st.floats(
    min_value=-1e-6, max_value=1e-6, allow_nan=False, allow_infinity=False
)


class TestNearColinearProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        xs=st.lists(coordinate, min_size=2, max_size=8, unique=True),
        jitters=st.lists(jitter, min_size=8, max_size=8),
    )
    def test_near_colinear_bisector_clips_bit_identically(self, xs, jitters):
        """Sites within 1e-6 of one horizontal line: the bisectors are
        near-colinear near-vertical lines, the worst case for reassociated
        arithmetic.  Every clip must still match the scalar oracle bit for
        bit."""
        sites = [
            Point(x, 100.0 + jitters[i % len(jitters)]) for i, x in enumerate(xs)
        ]
        domain_ring = gk.ring_of_rect(Rect(0.0, 0.0, 512.0, 512.0))
        for p in sites[:2]:
            for q in sites:
                if p is q:
                    continue
                hp = bisector_halfplane(p, q)
                assert gk.clip_ring(
                    domain_ring, hp.a, hp.b, hp.c
                ) == scalar_clip(domain_ring, hp.a, hp.b, hp.c)

    @settings(max_examples=40, deadline=None)
    @given(
        xs=st.lists(coordinate, min_size=3, max_size=9, unique=True),
        jitters=st.lists(jitter, min_size=9, max_size=9),
    )
    def test_near_colinear_refinement_matches_scalar_walk(self, xs, jitters):
        sites = [
            Point(x, 100.0 + jitters[i % len(jitters)]) for i, x in enumerate(xs)
        ]
        assert_refine_matches_oracle(
            sites[0], sites[1:], Rect(0.0, 0.0, 512.0, 512.0)
        )

    @settings(max_examples=40, deadline=None)
    @given(
        xs=st.lists(coordinate, min_size=4, max_size=10, unique=True),
        jitters=st.lists(jitter, min_size=10, max_size=10),
        margin_sign=st.sampled_from([1.0, -1.0]),
    )
    def test_containment_mask_matches_scalar_predicate(
        self, xs, jitters, margin_sign
    ):
        """``points_in_polygon`` against ``_contains_point`` with both
        margin conventions, probing points that sit near the cell border."""
        sites = [
            Point(x, 100.0 + jitters[i % len(jitters)]) for i, x in enumerate(xs)
        ]
        ring, _, _, _ = gk.refine_ring_nearest_first(
            gk.ring_of_rect(Rect(0.0, 0.0, 512.0, 512.0)),
            sites[0].x,
            sites[0].y,
            *_sorted_candidates(sites[0], sites[1:]),
        )
        if len(ring) < 3:
            return
        polygon = gk.polygon_from_ring(ring)
        margin = margin_sign * BOUNDARY_EPS
        probes = [Point(p.x, p.y) for p in sites] + [
            Point(x, y) for x, y in ring
        ]
        mask = gk.points_in_polygon(
            np.array(ring, dtype=np.float64),
            np.array([p.x for p in probes]),
            np.array([p.y for p in probes]),
            margin,
        )
        scalar = [polygon._contains_point(p, margin) for p in probes]
        assert mask.tolist() == scalar


def _sorted_candidates(site, others):
    candidates = sorted(
        ((site.distance_to(o), o) for o in others), key=lambda pair: pair[0]
    )
    ring = gk.ring_of_rect(Rect(0.0, 0.0, 512.0, 512.0))
    vdist = gk.ring_distances(ring, site.x, site.y)
    return (
        [o.x for _, o in candidates],
        [o.y for _, o in candidates],
        [d for d, _ in candidates],
        vdist,
        2.0 * max(vdist) if vdist else 0.0,
    )
