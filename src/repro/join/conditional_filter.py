"""ConditionalFilter: the filter phase of NM-CIJ (Algorithm 5).

Given a convex polygon ``T`` (the Voronoi cell of some ``q ∈ Q``) and the
R-tree ``R_P`` over ``P``, the filter computes a candidate set ``C_P`` of
points whose Voronoi cells *may* intersect ``T``:

* points are visited best-first by distance to the centroid of ``T``;
* a deheaped point ``p`` enters ``C_P`` only if its *approximate* cell
  ``V(p, C_P)`` — the cell induced by the candidates seen so far, a superset
  of the true cell — still intersects ``T``;
* a deheaped non-leaf entry ``e`` is pruned when it intersects no target
  polygon and some candidate ``p ∈ C_P`` places every target polygon inside
  ``Φ(L, p)`` for every side ``L`` of ``e`` (Lemma 3): no point below ``e``
  can then reach ``T`` with its Voronoi cell.

The batch variant processes all cells of one ``R_Q`` leaf at once, which is
what Algorithm 6 uses.

Exactness contract of the scalar path.  Admission (:func:`_admits`) and
Lemma-3 pruning (:func:`_entry_pruned`) run their distance tests on plain
``(x, y, distance)`` float tuples with the exact expressions of
``Point.distance_to`` and ``Rect.mindist_point``, so every comparison, the
candidate order and every clip are the ones the ``Point``/``ConvexPolygon``
formulation makes.  Admission may stop a cell early, once its MBR has left
the batch's target MBR by a margin; clipping only shrinks a polygon (the
crossing parameter is clamped to the edge), so the finished cell would
have been rejected too.  The candidate list and :class:`FilterStats` are
therefore those of building every approximate cell in full;
``tests/join/test_conditional_filter.py`` keeps that formulation as the
reference and checks the two agree.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.geometry.halfplane import bisector_halfplane
from repro.geometry.point import Point, centroid
from repro.geometry.polygon import ConvexPolygon
from repro.geometry.rect import Rect
from repro.geometry.tolerance import BOUNDARY_EPS
from repro.index.rtree import RTree
from repro.voronoi.cell import VoronoiCell

_POINT = 0
_CHILD = 1
_BY_DISTANCE = itemgetter(0)


@dataclass
class FilterStats:
    """Work counters of the filter phase (feeds Figure 10)."""

    heap_pops: int = 0
    points_examined: int = 0
    points_admitted: int = 0
    entries_pruned_phi: int = 0
    entries_expanded: int = 0

    def merge(self, other: "FilterStats") -> None:
        """Accumulate another stats record into this one."""
        self.heap_pops += other.heap_pops
        self.points_examined += other.points_examined
        self.points_admitted += other.points_admitted
        self.entries_pruned_phi += other.entries_pruned_phi
        self.entries_expanded += other.entries_expanded


def conditional_filter(
    target: ConvexPolygon,
    tree_p: RTree,
    domain: Rect,
    use_phi_pruning: bool = True,
    stats: Optional[FilterStats] = None,
    compute: str = "scalar",
) -> List[Tuple[int, Point]]:
    """Candidate points of ``P`` whose cells may intersect ``target``."""
    return batch_conditional_filter(
        [target],
        tree_p,
        domain,
        use_phi_pruning=use_phi_pruning,
        stats=stats,
        compute=compute,
    )


def batch_conditional_filter(
    targets: Sequence[ConvexPolygon],
    tree_p: RTree,
    domain: Rect,
    use_phi_pruning: bool = True,
    stats: Optional[FilterStats] = None,
    compute: str = "scalar",
) -> List[Tuple[int, Point]]:
    """Batch variant of Algorithm 5 for a group of target polygons.

    Parameters
    ----------
    targets:
        Non-empty convex polygons (Voronoi cells of one ``R_Q`` leaf).
    tree_p:
        The R-tree over ``P``.
    domain:
        Space domain ``U`` (starting approximation of candidate cells).
    use_phi_pruning:
        When ``False`` the Lemma-3 non-leaf pruning rule is disabled and
        every non-leaf entry is expanded; provided for the ablation bench
        that quantifies the rule's benefit.  Candidate admission (the
        approximate-cell test) is unaffected, so the result set is the same.
    stats:
        Optional shared work counters.
    compute:
        ``"scalar"`` (the oracle) or ``"kernel"`` (vectorised candidate
        ordering, Lemma-3 matrices and SAT tests; byte-identical result
        list and counters).

    Returns
    -------
    list of ``(oid, point)``
        The candidate set ``C_P`` in the order candidates were admitted.
    """
    polygons = [t for t in targets if not t.is_empty()]
    if not polygons:
        return []
    if tree_p.is_empty():
        return []
    stats = stats if stats is not None else FilterStats()
    if compute == "kernel":
        return _batch_conditional_filter_kernel(
            polygons, tree_p, domain, use_phi_pruning, stats
        )
    if compute != "scalar":
        raise ValueError(f"unknown compute mode: {compute!r}")

    group_center = centroid([polygon.centroid() for polygon in polygons])
    target_mbrs = [polygon.bounding_rect() for polygon in polygons]
    # Per-batch MBR work shared across all targets: the union MBR gives one
    # cheap rejection test before any per-target geometry runs.
    targets_mbr = Rect.union_all(target_mbrs)
    targets = list(zip(target_mbrs, polygons))
    # A running approximate cell whose MBR leaves this window can no longer
    # reach any target (see _admits for why the margin makes that exact).
    margin = BOUNDARY_EPS * max(
        1.0, abs(domain.xmin), abs(domain.ymin), abs(domain.xmax), abs(domain.ymax)
    )
    window = (
        targets_mbr.xmin - margin,
        targets_mbr.ymin - margin,
        targets_mbr.xmax + margin,
        targets_mbr.ymax + margin,
    )
    domain_polygon = ConvexPolygon.from_rect(domain)
    # All target vertices, flattened once: the Lemma-3 pruning test only
    # needs per-vertex distance comparisons (see _entry_pruned).
    target_vertices = [(v.x, v.y) for polygon in polygons for v in polygon.vertices]

    candidates: List[Tuple[int, Point]] = []
    # The admitted points again as (x, y, point), for the float loops.
    candidate_points: List[Tuple[float, float, Point]] = []
    counter = itertools.count()
    heap: List[tuple] = []

    def push_node(node) -> None:
        kind = _POINT if node.is_leaf else _CHILD
        for entry in node.entries:
            key = entry.mbr.mindist_point(group_center)
            heapq.heappush(heap, (key, next(counter), kind, entry))

    push_node(tree_p.read_node(tree_p.root_page))
    while heap:
        _, _, kind, entry = heapq.heappop(heap)
        stats.heap_pops += 1
        if kind == _POINT:
            stats.points_examined += 1
            point: Point = entry.payload
            if _admits(
                point, candidate_points, domain_polygon, window, targets_mbr, targets
            ):
                candidates.append((entry.oid, point))
                candidate_points.append((point.x, point.y, point))
                stats.points_admitted += 1
        else:
            if _entry_overlaps_targets(entry.mbr, targets_mbr, target_mbrs, polygons):
                stats.entries_expanded += 1
                push_node(tree_p.read_node(entry.child_page))
                continue
            if use_phi_pruning and _entry_pruned(
                entry.mbr, target_vertices, candidate_points
            ):
                stats.entries_pruned_phi += 1
                continue
            stats.entries_expanded += 1
            push_node(tree_p.read_node(entry.child_page))
    return candidates


def _batch_conditional_filter_kernel(
    polygons: Sequence[ConvexPolygon],
    tree_p: RTree,
    domain: Rect,
    use_phi_pruning: bool,
    stats: FilterStats,
) -> List[Tuple[int, Point]]:
    """Kernel twin of the scalar loop in :func:`batch_conditional_filter`.

    Traversal, counters and the admitted candidate list are byte-identical;
    the inner work is restructured onto the :mod:`repro.geometry.kernels`
    primitives — one vectorised distance/sort pass per examined point, a
    single candidate-by-vertex matrix for the Lemma-3 test, and array SAT
    for the target-hit tests.
    """
    from repro.geometry import kernels as gk

    gk.require_numpy()
    np = gk.np

    group_center = centroid([polygon.centroid() for polygon in polygons])
    target_mbrs = [polygon.bounding_rect() for polygon in polygons]
    targets_mbr = Rect.union_all(target_mbrs)
    target_arrays = [gk.polygon_to_array(polygon) for polygon in polygons]
    # Per-target MBR bounds as arrays: one vectorised Rect.intersects
    # replaces the per-target Python test.
    t_xmin = np.array([r.xmin for r in target_mbrs])
    t_ymin = np.array([r.ymin for r in target_mbrs])
    t_xmax = np.array([r.xmax for r in target_mbrs])
    t_ymax = np.array([r.ymax for r in target_mbrs])
    # All target vertices, flattened, for the Lemma-3 distance matrix.
    tvx = np.array([v.x for polygon in polygons for v in polygon.vertices])
    tvy = np.array([v.y for polygon in polygons for v in polygon.vertices])
    domain_ring = gk.ring_of_rect(domain)

    candidates: List[Tuple[int, Point]] = []
    # Candidate coordinates both as growing Python lists (cheap append) and
    # as arrays, rebuilt only when an admission invalidated them.
    cand_xs: List[float] = []
    cand_ys: List[float] = []
    arrays_stale = True
    cx = cy = None

    counter = itertools.count()
    heap: List[tuple] = []

    def push_node(node) -> None:
        kind = _POINT if node.is_leaf else _CHILD
        for entry in node.entries:
            key = entry.mbr.mindist_point(group_center)
            heapq.heappush(heap, (key, next(counter), kind, entry))

    def approximate_cell_ring(px: float, py: float):
        """Kernel ``_admits`` walk: vectorised candidate ordering, then
        the nearest-first Lemma-1 ring walk."""
        if candidates:
            dx = cx - px
            dy = cy - py
            d = np.sqrt(dx * dx + dy * dy)
            keep = (cx != px) | (cy != py)
            idx = np.flatnonzero(keep)
            order = idx[np.argsort(d[idx], kind="stable")]
            oxs = cx[order]
            oys = cy[order]
            ds = d[order].tolist()
        else:
            oxs = oys = ds = []
        vdist = gk.ring_distances(domain_ring, px, py)
        reach = 2.0 * max(vdist)
        ring, _, _, _ = gk.refine_ring_nearest_first(
            domain_ring, px, py, oxs, oys, ds, vdist, reach
        )
        return ring

    def ring_hits_any_target(ring) -> bool:
        """Kernel twin of ``_admits``'s final hit test (union MBR,
        per-target MBR mask, then array SAT in target order)."""
        if len(ring) < 3:
            return False
        rxs = [p[0] for p in ring]
        rys = [p[1] for p in ring]
        xmin = min(rxs)
        ymin = min(rys)
        xmax = max(rxs)
        ymax = max(rys)
        if (
            xmax < targets_mbr.xmin
            or targets_mbr.xmax < xmin
            or ymax < targets_mbr.ymin
            or targets_mbr.ymax < ymin
        ):
            return False
        mask = gk.rects_intersect_mask(
            t_xmin, t_ymin, t_xmax, t_ymax, xmin, ymin, xmax, ymax
        )
        if not mask.any():
            return False
        ring_arr = np.array(ring, dtype=np.float64)
        for t in np.flatnonzero(mask):
            if gk.sat_intersects(ring_arr, target_arrays[t], True):
                return True
        return False

    def entry_overlaps_targets(mbr: Rect) -> bool:
        """Kernel ``_entry_overlaps_targets``."""
        if not mbr.intersects(targets_mbr):
            return False
        mask = gk.rects_intersect_mask(
            t_xmin, t_ymin, t_xmax, t_ymax, mbr.xmin, mbr.ymin, mbr.xmax, mbr.ymax
        )
        if not mask.any():
            return False
        for t in np.flatnonzero(mask):
            if gk.sat_intersects_rect(target_arrays[t], mbr):
                return True
        return False

    def entry_pruned(mbr: Rect) -> bool:
        """Kernel ``_entry_pruned``: the whole candidate-by-vertex Lemma-3
        comparison as one matrix expression."""
        if not candidates:
            return False
        md = gk.rect_mindist_to_points(
            mbr.xmin, mbr.ymin, mbr.xmax, mbr.ymax, tvx, tvy
        )
        cdx = cx[:, None] - tvx[None, :]
        cdy = cy[:, None] - tvy[None, :]
        cd = np.sqrt(cdx * cdx + cdy * cdy)
        return bool(np.any(np.all(cd <= md[None, :], axis=1)))

    push_node(tree_p.read_node(tree_p.root_page))
    while heap:
        _, _, kind, entry = heapq.heappop(heap)
        stats.heap_pops += 1
        if kind == _POINT:
            stats.points_examined += 1
            point: Point = entry.payload
            if arrays_stale:
                cx = np.array(cand_xs)
                cy = np.array(cand_ys)
                arrays_stale = False
            ring = approximate_cell_ring(point.x, point.y)
            if ring_hits_any_target(ring):
                candidates.append((entry.oid, point))
                cand_xs.append(point.x)
                cand_ys.append(point.y)
                arrays_stale = True
                stats.points_admitted += 1
        else:
            if entry_overlaps_targets(entry.mbr):
                stats.entries_expanded += 1
                push_node(tree_p.read_node(entry.child_page))
                continue
            if use_phi_pruning:
                if arrays_stale:
                    cx = np.array(cand_xs)
                    cy = np.array(cand_ys)
                    arrays_stale = False
                if entry_pruned(entry.mbr):
                    stats.entries_pruned_phi += 1
                    continue
            stats.entries_expanded += 1
            push_node(tree_p.read_node(entry.child_page))
    return candidates


def _admits(
    point: Point,
    candidate_points: Sequence[Tuple[float, float, Point]],
    domain_polygon: ConvexPolygon,
    window: Tuple[float, float, float, float],
    targets_mbr: Rect,
    targets: Sequence[Tuple[Rect, ConvexPolygon]],
) -> bool:
    """Whether ``point`` enters ``C_P``: does ``V(p, C_P)`` reach a target?

    ``V(p, C_P)`` is the cell of ``p`` induced by the current candidates.
    Because ``C_P ⊆ P`` it is a superset of the exact cell ``V(p, P)``; if
    it misses every target, the exact cell misses them too and ``p`` is
    discarded.

    The cell is built from the domain by clipping with candidate bisectors
    in ascending distance from ``p`` (a stable sort, so ties keep admission
    order).  A candidate is clipped only when it beats some current vertex
    ``v`` (Lemma 1: ``dist(o, v) < dist(p, v)``), and the walk stops at the
    first candidate beyond twice the largest vertex distance (no later one
    can beat any vertex).  All of this runs on ``(x, y, distance)`` float
    tuples with ``Point.distance_to``'s exact ``sqrt(dx*dx + dy*dy)``
    expression, so every Lemma-1 decision, and hence every clip, is the
    one the plain ``ConvexPolygon``/``Point`` formulation makes.  The
    final test is the union-MBR test, then per target an MBR test and the
    closed separating-axis test.

    Early exit: the walk returns ``False`` as soon as the running polygon's
    vertex MBR clears the batch's union target MBR by more than the margin
    baked into ``window``.  This cannot change the decision.  Every later
    clip only shrinks the polygon: ``clip_halfplane`` emits input vertices
    and crossing points with ``t`` clamped to ``[0, 1]``, i.e. convex
    combinations of the input vertices, and deduplication only drops
    vertices.  Rounding can move a crossing point out of the input's MBR
    by a few ulps of the coordinate magnitude per clip; the margin,
    ``BOUNDARY_EPS`` times the largest domain coordinate, exceeds that
    drift for any realistic number of clips, so the final polygon's MBR
    would miss the union MBR too.  The clips performed are therefore a
    prefix of the full walk's clips, and the answer is the full walk's.
    """
    px = point.x
    py = point.y
    sqrt = math.sqrt
    ordered = []
    for ox, oy, other in candidate_points:
        if ox != px or oy != py:
            dx = px - ox
            dy = py - oy
            ordered.append((sqrt(dx * dx + dy * dy), ox, oy, other))
    ordered.sort(key=_BY_DISTANCE)

    polygon = domain_polygon
    ring, reach, xmin, ymin, xmax, ymax = _vertex_ring(px, py, polygon.vertices)
    wxmin, wymin, wxmax, wymax = window
    for distance, ox, oy, other in ordered:
        if distance > reach:
            break
        for vx, vy, vd in ring:
            dx = ox - vx
            dy = oy - vy
            if sqrt(dx * dx + dy * dy) < vd:
                break
        else:
            continue  # beats no vertex: cannot refine the cell (Lemma 1)
        polygon = polygon.clip_halfplane(bisector_halfplane(point, other))
        vertices = polygon.vertices
        if len(vertices) < 3:
            return False
        ring, reach, xmin, ymin, xmax, ymax = _vertex_ring(px, py, vertices)
        if xmax < wxmin or wxmax < xmin or ymax < wymin or wymax < ymin:
            return False

    if (
        xmax < targets_mbr.xmin
        or targets_mbr.xmax < xmin
        or ymax < targets_mbr.ymin
        or targets_mbr.ymax < ymin
    ):
        return False
    for target_mbr, target in targets:
        if (
            xmax < target_mbr.xmin
            or target_mbr.xmax < xmin
            or ymax < target_mbr.ymin
            or target_mbr.ymax < ymin
        ):
            continue
        if polygon.intersects(target):
            return True
    return False


def _vertex_ring(px: float, py: float, vertices: Sequence[Point]):
    """``(ring, reach, xmin, ymin, xmax, ymax)`` of a cell polygon.

    ``ring`` holds ``(x, y, dist(p, v))`` per vertex, ``reach`` is twice
    the largest of those distances (the influence radius) and the rest is
    the vertex MBR.
    """
    sqrt = math.sqrt
    ring = []
    far = 0.0
    v0 = vertices[0]
    xmin = xmax = v0.x
    ymin = ymax = v0.y
    for v in vertices:
        vx = v.x
        vy = v.y
        dx = px - vx
        dy = py - vy
        d = sqrt(dx * dx + dy * dy)
        ring.append((vx, vy, d))
        if d > far:
            far = d
        if vx < xmin:
            xmin = vx
        elif vx > xmax:
            xmax = vx
        if vy < ymin:
            ymin = vy
        elif vy > ymax:
            ymax = vy
    return ring, 2.0 * far, xmin, ymin, xmax, ymax


def _entry_overlaps_targets(
    mbr: Rect,
    targets_mbr: Rect,
    target_mbrs: Sequence[Rect],
    polygons: Sequence[ConvexPolygon],
) -> bool:
    """Whether the entry MBR intersects any target polygon.

    Such an entry may contain points *inside* a target cell (guaranteed join
    partners), so it can never be pruned.  The union MBR of the whole batch
    is checked first so disjoint entries pay a single rectangle test.
    """
    if not mbr.intersects(targets_mbr):
        return False
    for target_mbr, polygon in zip(target_mbrs, polygons):
        if mbr.intersects(target_mbr) and polygon.intersects_rect(mbr):
            return True
    return False


def _entry_pruned(
    mbr: Rect,
    target_vertices: Sequence[Tuple[float, float]],
    candidate_points: Sequence[Tuple[float, float, Point]],
) -> bool:
    """Lemma-3 pruning: some candidate blocks the whole subtree.

    The paper states the rule as "every target polygon T falls inside
    Φ(L, p) for every side L of the entry MBR".  Because the targets reaching
    this test never intersect the MBR (intersecting entries were already
    expanded), the conjunction over the four sides is equivalent to requiring
    ``dist(p, v) <= mindist(MBR, v)`` for every target vertex ``v``: the
    binding side of Φ is always the one nearest to ``v``, and the distance to
    that side equals the distance to the rectangle itself.  The test below
    uses that equivalent form; :func:`repro.geometry.influence.polygon_within_phi`
    implements the literal per-side formulation and the test-suite checks
    that the two agree.

    The per-vertex mindists are computed once per entry, with the exact
    expressions of ``Rect.mindist_point`` and ``Point.distance_to``.
    """
    if not candidate_points:
        return False
    sqrt = math.sqrt
    xmin = mbr.xmin
    ymin = mbr.ymin
    xmax = mbr.xmax
    ymax = mbr.ymax
    bounds = []
    for vx, vy in target_vertices:
        dx = max(xmin - vx, 0.0, vx - xmax)
        dy = max(ymin - vy, 0.0, vy - ymax)
        bounds.append((vx, vy, sqrt(dx * dx + dy * dy)))
    for cx, cy, _ in candidate_points:
        for vx, vy, bound in bounds:
            dx = cx - vx
            dy = cy - vy
            if sqrt(dx * dx + dy * dy) > bound:
                break
        else:
            return True
    return False


def candidate_cells_from_buffer(
    candidates: Sequence[Tuple[int, Point]],
    reuse_buffer: Dict[int, VoronoiCell],
) -> Tuple[List[Tuple[int, Point]], Dict[int, VoronoiCell]]:
    """Split candidates into those with a buffered exact cell and the rest.

    Helper for the REUSE heuristic of NM-CIJ: returns the candidates that
    still need an exact cell computation and the mapping of reused cells.
    """
    missing: List[Tuple[int, Point]] = []
    reused: Dict[int, VoronoiCell] = {}
    for oid, point in candidates:
        cell = reuse_buffer.get(oid)
        if cell is not None and cell.site == point:
            reused[oid] = cell
        else:
            missing.append((oid, point))
    return missing, reused
