"""Tests for the ConditionalFilter (Algorithm 5) and its batch variant."""

import heapq
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import DOMAIN, uniform_points
from repro.datasets.workload import build_indexed_pointset
from repro.geometry.halfplane import bisector_halfplane
from repro.geometry.influence import entry_pruned_by_candidate, polygon_within_phi, rect_sides
from repro.geometry.point import Point, centroid
from repro.geometry.polygon import ConvexPolygon
from repro.geometry.rect import Rect
from repro.geometry.tolerance import BOUNDARY_EPS
from repro.index.bulkload import bulk_load_points
from repro.index.rtree import RTree
from repro.join.conditional_filter import (
    FilterStats,
    batch_conditional_filter,
    candidate_cells_from_buffer,
    conditional_filter,
)
from repro.storage.disk import DiskManager
from repro.voronoi.batch import compute_cells_for_leaf
from repro.voronoi.cell import VoronoiCell
from repro.voronoi.diagram import brute_force_cell, brute_force_diagram


def indexed(points):
    disk = DiskManager()
    tree = build_indexed_pointset(disk, "RP", points, domain=DOMAIN)
    return disk, tree


class TestConditionalFilterCompleteness:
    def test_candidates_are_a_superset_of_true_join_partners(self):
        """The filter must never drop a point whose exact cell reaches T."""
        points_p = uniform_points(120, seed=131)
        points_q = uniform_points(40, seed=132)
        _, tree_p = indexed(points_p)
        diagram_p = brute_force_diagram(points_p, DOMAIN)
        for q_oid in (0, 7, 23):
            target = brute_force_cell(points_q[q_oid], points_q, DOMAIN).polygon
            candidates = {oid for oid, _ in conditional_filter(target, tree_p, DOMAIN)}
            true_partners = {
                cell.oid for cell in diagram_p if cell.polygon.intersects(target)
            }
            assert true_partners.issubset(candidates)

    def test_points_inside_target_are_always_candidates(self):
        points_p = uniform_points(100, seed=133)
        _, tree_p = indexed(points_p)
        target = ConvexPolygon.from_rect(Rect(2000.0, 2000.0, 5000.0, 5000.0))
        candidates = {oid for oid, _ in conditional_filter(target, tree_p, DOMAIN)}
        inside = {
            oid for oid, p in enumerate(points_p) if target.contains_point(p)
        }
        assert inside.issubset(candidates)

    def test_empty_targets_give_no_candidates(self):
        points_p = uniform_points(50, seed=134)
        _, tree_p = indexed(points_p)
        assert batch_conditional_filter([], tree_p, DOMAIN) == []
        assert batch_conditional_filter([ConvexPolygon.empty()], tree_p, DOMAIN) == []

    def test_empty_tree_gives_no_candidates(self):
        target = ConvexPolygon.from_rect(Rect(0, 0, 100, 100))
        assert conditional_filter(target, RTree(DiskManager(), "RP"), DOMAIN) == []

    def test_batch_filter_covers_union_of_single_filters(self):
        points_p = uniform_points(150, seed=135)
        points_q = uniform_points(30, seed=136)
        _, tree_p = indexed(points_p)
        targets = [
            brute_force_cell(points_q[i], points_q, DOMAIN).polygon for i in range(4)
        ]
        batch = {oid for oid, _ in batch_conditional_filter(targets, tree_p, DOMAIN)}
        diagram_p = brute_force_diagram(points_p, DOMAIN)
        for target in targets:
            true_partners = {
                cell.oid for cell in diagram_p if cell.polygon.intersects(target)
            }
            assert true_partners.issubset(batch)


class TestConditionalFilterSelectivity:
    def test_filter_does_not_admit_everything(self):
        """The false-hit ratio claim only makes sense if the filter is
        selective: for a small target, most of P must be pruned."""
        points_p = uniform_points(300, seed=137)
        _, tree_p = indexed(points_p)
        target = ConvexPolygon.from_rect(Rect(4800.0, 4800.0, 5200.0, 5200.0))
        candidates = conditional_filter(target, tree_p, DOMAIN)
        assert len(candidates) < len(points_p) / 4

    def test_phi_pruning_reduces_expanded_entries(self):
        points_p = uniform_points(400, seed=138)
        _, tree_p = indexed(points_p)
        target = ConvexPolygon.from_rect(Rect(1000.0, 1000.0, 1400.0, 1400.0))
        with_phi = FilterStats()
        without_phi = FilterStats()
        admitted_a = batch_conditional_filter([target], tree_p, DOMAIN, stats=with_phi)
        admitted_b = batch_conditional_filter(
            [target], tree_p, DOMAIN, use_phi_pruning=False, stats=without_phi
        )
        assert {oid for oid, _ in admitted_a} == {oid for oid, _ in admitted_b}
        assert with_phi.entries_pruned_phi > 0
        assert with_phi.entries_expanded < without_phi.entries_expanded

    def test_stats_merge(self):
        a = FilterStats(heap_pops=1, points_examined=2)
        b = FilterStats(heap_pops=3, points_admitted=4, entries_pruned_phi=5)
        a.merge(b)
        assert a.heap_pops == 4
        assert a.points_admitted == 4
        assert a.entries_pruned_phi == 5


class TestPruningRuleEquivalence:
    def test_fast_vertex_rule_matches_phi_side_rule(self):
        """The filter uses dist(p, v) <= mindist(MBR, v); the paper states
        the rule per MBR side via Φ(L, p).  For MBRs disjoint from the
        target, both must agree."""
        import random

        rng = random.Random(139)
        for _ in range(200):
            x, y = rng.uniform(0, 9000), rng.uniform(0, 9000)
            mbr = Rect(x, y, x + rng.uniform(10, 800), y + rng.uniform(10, 800))
            tx, ty = rng.uniform(0, 9500), rng.uniform(0, 9500)
            target = ConvexPolygon.from_rect(Rect(tx, ty, tx + 400, ty + 300))
            candidate = Point(rng.uniform(0, 10000), rng.uniform(0, 10000))
            if target.intersects_rect(mbr):
                continue
            per_side = all(
                polygon_within_phi(target, side, candidate) for side in rect_sides(mbr)
            )
            per_vertex = all(
                candidate.distance_to(v) <= mbr.mindist_point(v)
                for v in target.vertices
            )
            assert per_side == per_vertex
            assert entry_pruned_by_candidate(mbr, target, candidate) == per_side


class TestReuseBufferHelper:
    def test_candidates_split_between_buffer_and_missing(self):
        cell = VoronoiCell(1, Point(10.0, 10.0), ConvexPolygon.from_rect(Rect(0, 0, 20, 20)))
        buffer = {1: cell}
        candidates = [(1, Point(10.0, 10.0)), (2, Point(50.0, 50.0))]
        missing, reused = candidate_cells_from_buffer(candidates, buffer)
        assert reused == {1: cell}
        assert missing == [(2, Point(50.0, 50.0))]

    def test_stale_buffer_entry_with_different_site_is_not_reused(self):
        cell = VoronoiCell(1, Point(10.0, 10.0), ConvexPolygon.from_rect(Rect(0, 0, 20, 20)))
        buffer = {1: cell}
        missing, reused = candidate_cells_from_buffer([(1, Point(99.0, 99.0))], buffer)
        assert reused == {}
        assert missing == [(1, Point(99.0, 99.0))]


# ----------------------------------------------------------------------
# Differential test: the float fast path against the plain formulation
# ----------------------------------------------------------------------
def reference_filter(targets, tree_p, domain, use_phi_pruning=True, stats=None):
    """The scalar filter as first written, on ``Point``/``ConvexPolygon``
    objects: build each approximate cell in full, then test it.  The
    production filter must return the same candidate list and counters."""
    polygons = [t for t in targets if not t.is_empty()]
    if not polygons or tree_p.is_empty():
        return []
    stats = stats if stats is not None else FilterStats()
    group_center = centroid([polygon.centroid() for polygon in polygons])
    target_mbrs = [polygon.bounding_rect() for polygon in polygons]
    targets_mbr = Rect.union_all(target_mbrs)
    target_vertices = [v for polygon in polygons for v in polygon.vertices]
    candidates = []
    counter = itertools.count()
    heap = []

    def push_node(node):
        kind = 0 if node.is_leaf else 1
        for entry in node.entries:
            key = entry.mbr.mindist_point(group_center)
            heapq.heappush(heap, (key, next(counter), kind, entry))

    push_node(tree_p.read_node(tree_p.root_page))
    while heap:
        _, _, kind, entry = heapq.heappop(heap)
        stats.heap_pops += 1
        if kind == 0:
            stats.points_examined += 1
            point = entry.payload
            approx = reference_approximate_cell(point, candidates, domain)
            if reference_hits_any_target(approx, targets_mbr, target_mbrs, polygons):
                candidates.append((entry.oid, point))
                stats.points_admitted += 1
        else:
            if reference_overlaps_targets(entry.mbr, targets_mbr, target_mbrs, polygons):
                stats.entries_expanded += 1
                push_node(tree_p.read_node(entry.child_page))
                continue
            if use_phi_pruning and reference_entry_pruned(
                entry.mbr, target_vertices, candidates
            ):
                stats.entries_pruned_phi += 1
                continue
            stats.entries_expanded += 1
            push_node(tree_p.read_node(entry.child_page))
    return candidates


def reference_approximate_cell(point, candidates, domain):
    polygon = ConvexPolygon.from_rect(domain)
    ordered = sorted(
        (
            (point.distance_to(other), other)
            for _, other in candidates
            if other.x != point.x or other.y != point.y
        ),
        key=lambda pair: pair[0],
    )
    vertex_dists = [(v, point.distance_to(v)) for v in polygon.vertices]
    reach = 2.0 * max(d for _, d in vertex_dists)
    for distance, other in ordered:
        if distance > reach:
            break
        if not any(other.distance_to(v) < d for v, d in vertex_dists):
            continue
        polygon = polygon.clip_halfplane(bisector_halfplane(point, other))
        if polygon.is_empty():
            break
        vertex_dists = [(v, point.distance_to(v)) for v in polygon.vertices]
        reach = 2.0 * max(d for _, d in vertex_dists)
    return polygon


def reference_hits_any_target(polygon, targets_mbr, target_mbrs, targets):
    if polygon.is_empty():
        return False
    mbr = polygon.bounding_rect()
    if not mbr.intersects(targets_mbr):
        return False
    for target_mbr, target in zip(target_mbrs, targets):
        if mbr.intersects(target_mbr) and polygon.intersects(target):
            return True
    return False


def reference_overlaps_targets(mbr, targets_mbr, target_mbrs, polygons):
    if not mbr.intersects(targets_mbr):
        return False
    for target_mbr, polygon in zip(target_mbrs, polygons):
        if mbr.intersects(target_mbr) and polygon.intersects_rect(mbr):
            return True
    return False


def reference_entry_pruned(mbr, target_vertices, candidates):
    for _, candidate in candidates:
        if all(
            candidate.distance_to(v) <= mbr.mindist_point(v) for v in target_vertices
        ):
            return True
    return False


def assert_filter_matches_reference(targets, tree_p, domain, use_phi_pruning):
    ref_stats = FilterStats()
    new_stats = FilterStats()
    expected = reference_filter(
        targets, tree_p, domain, use_phi_pruning=use_phi_pruning, stats=ref_stats
    )
    actual = batch_conditional_filter(
        targets, tree_p, domain, use_phi_pruning=use_phi_pruning, stats=new_stats
    )
    assert actual == expected
    assert new_stats == ref_stats


#: Small pages give multi-level trees at hypothesis sizes, so the Lemma-3
#: branch sees non-leaf entries.
SMALL_PAGE = 256


@st.composite
def filter_cases(draw):
    """A pointset, a batch of target cells and a domain, in unit coordinates
    later scaled by a power of two (exact in binary floating point)."""
    unit = st.floats(0.0, 10_000.0, allow_nan=False, allow_infinity=False)
    layout = draw(st.sampled_from(["uniform", "grid", "duplicates", "cluster"]))
    if layout == "uniform":
        coords = draw(st.lists(st.tuples(unit, unit), min_size=4, max_size=60))
    elif layout == "grid":
        # A coarse lattice: many exactly equal distances, so the stable
        # tie order of the candidate sort and the strict Lemma-1/Lemma-3
        # comparisons are exercised.
        step = st.integers(0, 20).map(lambda i: i * 500.0)
        coords = draw(st.lists(st.tuples(step, step), min_size=4, max_size=60))
    elif layout == "duplicates":
        pool = draw(st.lists(st.tuples(unit, unit), min_size=1, max_size=6))
        coords = draw(st.lists(st.sampled_from(pool), min_size=4, max_size=40))
        coords += draw(st.lists(st.tuples(unit, unit), max_size=20))
    else:
        cx, cy = draw(st.tuples(unit, unit))
        radius = draw(st.sampled_from([BOUNDARY_EPS, 1e-3, 1.0, 50.0]))
        offset = st.floats(-radius, radius, allow_nan=False)
        coords = [
            (min(max(cx + dx, 0.0), 10_000.0), min(max(cy + dy, 0.0), 10_000.0))
            for dx, dy in draw(
                st.lists(st.tuples(offset, offset), min_size=4, max_size=50)
            )
        ]
        coords += draw(st.lists(st.tuples(unit, unit), max_size=15))
    # Query sites: one pinned to a domain corner, so its cell (a target)
    # touches that corner; the others anywhere.
    corner = draw(st.sampled_from([(0.0, 0.0), (10_000.0, 0.0), (0.0, 10_000.0),
                                   (10_000.0, 10_000.0)]))
    sites = [corner] + draw(
        st.lists(st.tuples(unit, unit), min_size=1, max_size=8, unique=True)
    )
    batch = draw(st.integers(1, min(4, len(sites))))
    scale = 2.0 ** draw(st.integers(-12, 12))
    return coords, sites, batch, scale


class TestFilterMatchesReference:
    """The admission fast path (float loops, early exit) and the Lemma-3
    rewrite must reproduce the plain formulation decision for decision."""

    @given(filter_cases(), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_candidates_and_stats_match_reference(self, case, use_phi_pruning):
        coords, sites, batch, scale = case
        domain = Rect(0.0, 0.0, 10_000.0 * scale, 10_000.0 * scale)
        points = [Point(x * scale, y * scale) for x, y in coords]
        q_sites = [Point(x * scale, y * scale) for x, y in sites]
        q_sites = list(dict.fromkeys(q_sites))  # scaling keeps them distinct
        targets = [
            brute_force_cell(site, q_sites, domain).polygon
            for site in q_sites[:batch]
        ]
        disk = DiskManager()
        with disk.suspend_io_accounting():
            tree_p = bulk_load_points(
                disk, "RP", points, domain=domain, page_size=SMALL_PAGE
            )
        assert_filter_matches_reference(targets, tree_p, domain, use_phi_pruning)

    def test_corner_rectangle_targets_match_reference(self):
        points = uniform_points(150, seed=140)
        _, tree_p = indexed(points)
        for corner in (Rect(0.0, 0.0, 300.0, 200.0), Rect(9800.0, 9700.0, 10_000.0, 10_000.0)):
            for use_phi_pruning in (True, False):
                assert_filter_matches_reference(
                    [ConvexPolygon.from_rect(corner)], tree_p, DOMAIN, use_phi_pruning
                )

    def test_every_nm_leaf_batch_matches_reference(self):
        """Realistic batches: the Voronoi cells of every R_Q leaf, as NM-CIJ
        feeds them to the filter."""
        disk = DiskManager()
        points_p = uniform_points(300, seed=141)
        points_q = uniform_points(300, seed=142)
        tree_p = build_indexed_pointset(disk, "RP", points_p, domain=DOMAIN)
        tree_q = build_indexed_pointset(disk, "RQ", points_q, domain=DOMAIN)
        for leaf in tree_q.iter_leaf_nodes():
            cells = compute_cells_for_leaf(tree_q, leaf.entries, DOMAIN)
            targets = [cell.polygon for cell in cells.values()]
            for use_phi_pruning in (True, False):
                assert_filter_matches_reference(
                    targets, tree_p, DOMAIN, use_phi_pruning
                )
