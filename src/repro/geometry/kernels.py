"""Array-native geometry kernels for the CIJ hot path.

The scalar geometry layer (:mod:`repro.geometry.polygon`,
:mod:`repro.geometry.halfplane`) is the *oracle*: every predicate below is
a vectorised NumPy re-implementation of one scalar hot loop, written so
that it produces **bit-identical** floats and therefore byte-identical
decisions.  Three rules make that possible:

* every arithmetic expression keeps the scalar code's exact operation
  sequence and association (``a*x + b*y - c`` stays ``(a*x + b*y) - c``);
* only correctly-rounded operations are used (multiply, add, subtract,
  divide, ``sqrt`` — never ``hypot``, whose last-ulp behaviour differs
  between libm and NumPy), matching the scalar layer which was moved onto
  the same formulas;
* the tolerances come from :mod:`repro.geometry.tolerance`, the same
  module the scalar predicates read.

Polygons travel through the kernels as ``(n, 2)`` float64 vertex arrays in
counter-clockwise order — the array twin of
:attr:`~repro.geometry.polygon.ConvexPolygon.vertices`.  ``n < 3`` means
the polygon is empty, exactly like the scalar class.

NumPy is an optional dependency: import this module freely, but call
:func:`require_numpy` (or let the engine do it) before using a kernel.
The ``compute="kernel"`` engine mode and the ``$REPRO_COMPUTE`` variable
are resolved here so the CLI, the engine and the workload builders share
one switch, mirroring how ``$REPRO_STORAGE`` selects the page store.
"""

from __future__ import annotations

import bisect
import math
import os
from typing import List, Optional, Sequence, Tuple

try:  # pragma: no cover - exercised only where numpy is absent
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover
    np = None
    HAVE_NUMPY = False

from repro.geometry.point import Point
from repro.geometry.polygon import ConvexPolygon, _far_enough
from repro.geometry.rect import Rect
from repro.geometry.tolerance import BOUNDARY_EPS

#: Compute-mode identifiers accepted by ``EngineConfig.compute``.
COMPUTE_MODES = ("scalar", "kernel")

#: Environment variable selecting the default compute mode (used by CI).
COMPUTE_ENV_VAR = "REPRO_COMPUTE"


def default_compute_mode() -> str:
    """The mode used when none is requested: ``$REPRO_COMPUTE`` or scalar."""
    mode = os.environ.get(COMPUTE_ENV_VAR, "scalar").strip().lower() or "scalar"
    if mode not in COMPUTE_MODES:
        raise ValueError(
            f"{COMPUTE_ENV_VAR}={mode!r} is not a known compute mode; "
            f"expected one of {COMPUTE_MODES}"
        )
    return mode


def resolve_compute_mode(mode: Optional[str]) -> str:
    """Validate an explicit mode (``None`` resolves the default) and check
    that the kernel path's dependency is actually importable."""
    resolved = mode if mode is not None else default_compute_mode()
    if resolved not in COMPUTE_MODES:
        raise ValueError(
            f"unknown compute mode {resolved!r}; expected one of {COMPUTE_MODES}"
        )
    if resolved == "kernel":
        require_numpy()
    return resolved


def require_numpy() -> None:
    """Raise a clear error when the kernel path is requested without NumPy."""
    if not HAVE_NUMPY:  # pragma: no cover - environment-dependent
        raise RuntimeError(
            "compute='kernel' requires numpy, which is not installed; "
            "run with compute='scalar' (the default) instead"
        )


# ----------------------------------------------------------------------
# conversions between the scalar and the array representation
# ----------------------------------------------------------------------
def polygon_to_array(polygon: ConvexPolygon):
    """The ``(n, 2)`` float64 vertex array of a scalar polygon."""
    verts = polygon.vertices
    if not verts:
        return np.empty((0, 2), dtype=np.float64)
    return np.array([(v.x, v.y) for v in verts], dtype=np.float64)


def polygon_from_array(verts) -> ConvexPolygon:
    """Rebuild a scalar polygon from a kernel vertex array.

    The array is always the output of :func:`clip_halfplane_array` (or a
    domain rectangle), i.e. a ring the scalar ``_from_clip_ring`` path
    would have produced verbatim, so the normalisation pass is skipped —
    exactly like the scalar fast constructor.
    """
    polygon = ConvexPolygon.__new__(ConvexPolygon)
    polygon._vertices = tuple(Point(float(x), float(y)) for x, y in verts)
    return polygon


def rect_to_array(rect: Rect):
    """The domain rectangle as a kernel vertex array (CCW corners)."""
    return np.array(
        [
            (rect.xmin, rect.ymin),
            (rect.xmax, rect.ymin),
            (rect.xmax, rect.ymax),
            (rect.xmin, rect.ymax),
        ],
        dtype=np.float64,
    )


def points_to_arrays(points: Sequence[Point]):
    """Coordinate arrays ``(xs, ys)`` of a point sequence."""
    n = len(points)
    xs = np.empty(n, dtype=np.float64)
    ys = np.empty(n, dtype=np.float64)
    for i, p in enumerate(points):
        xs[i] = p.x
        ys[i] = p.y
    return xs, ys


# ----------------------------------------------------------------------
# distances (bit-identical to Point.distance_to / Rect.mindist_point)
# ----------------------------------------------------------------------
def distances_to_point(xs, ys, px: float, py: float):
    """Euclidean distances from ``(xs, ys)`` to one point.

    Same expression as :meth:`repro.geometry.point.Point.distance_to`:
    ``sqrt(dx*dx + dy*dy)``.
    """
    dx = xs - px
    dy = ys - py
    return np.sqrt(dx * dx + dy * dy)


def rect_mindist_to_points(
    xmin: float, ymin: float, xmax: float, ymax: float, xs, ys
):
    """``Rect.mindist_point`` of one rectangle against many points.

    Replicates ``max(xmin - x, 0.0, x - xmax)`` — a left-to-right Python
    ``max`` — as two chained ``np.maximum`` calls, then the same
    ``sqrt(dx*dx + dy*dy)``.
    """
    dx = np.maximum(np.maximum(xmin - xs, 0.0), xs - xmax)
    dy = np.maximum(np.maximum(ymin - ys, 0.0), ys - ymax)
    return np.sqrt(dx * dx + dy * dy)


# ----------------------------------------------------------------------
# bisector construction (Equation 1) for one site against an array
# ----------------------------------------------------------------------
def bisector_coefficients(px: float, py: float, qx, qy):
    """Halfplane coefficients ``(a, b, c)`` of ``⊥(p, q)`` for arrays of
    neighbours ``q`` — the vectorised twin of
    :func:`repro.geometry.halfplane.bisector_halfplane`."""
    a = 2.0 * (qx - px)
    b = 2.0 * (qy - py)
    c = (qx * qx + qy * qy) - (px * px + py * py)
    return a, b, c


# ----------------------------------------------------------------------
# halfplane clipping (the cell refinement operation)
# ----------------------------------------------------------------------
def clip_halfplane_array(verts, a: float, b: float, c: float):
    """Clip a CCW vertex ring with the closed halfplane ``a*x + b*y <= c``.

    Bit-identical to :meth:`ConvexPolygon.clip_halfplane` followed by the
    ``_from_clip_ring`` dedup: same tolerance, same vertex/intersection
    emission order, same consecutive-duplicate filtering.  Returns a new
    ``(m, 2)`` array (``m < 3`` = empty).
    """
    n = len(verts)
    if n < 3:
        return verts
    norm = math.sqrt(a * a + b * b)
    tol = BOUNDARY_EPS * (norm if norm > 0.0 else max(1.0, abs(c)))
    xs = verts[:, 0]
    ys = verts[:, 1]
    values = (a * xs + b * ys) - c
    inside = values <= tol
    if inside.all():
        return verts
    if (values >= -tol).all():
        return np.empty((0, 2), dtype=np.float64)

    # Wrapped-successor views built by slice assignment (np.roll is far too
    # slow for rings this small).
    nxt = np.empty_like(verts)
    nxt[: n - 1] = verts[1:]
    nxt[n - 1] = verts[0]
    values_n = np.empty_like(values)
    values_n[: n - 1] = values[1:]
    values_n[n - 1] = values[0]
    crossing = inside != (values_n <= tol)

    # Crossing parameter t = vc / (vc - vn), meaningful only on crossing
    # edges (vc != vn there, since exactly one side clears the tolerance);
    # non-crossing denominators are patched to 1 so the division is safe.
    # Clamped to [0, 1] like the scalar clip (an endpoint within tol of
    # the line would otherwise extrapolate past the edge).
    denom = values - values_n
    denom[~crossing] = 1.0
    t = np.clip(values / denom, 0.0, 1.0)
    cross_pts = np.empty_like(verts)
    cross_pts[:, 0] = xs + t * (nxt[:, 0] - xs)
    cross_pts[:, 1] = ys + t * (nxt[:, 1] - ys)

    # Scalar emission order per edge i: vertex i (if inside), then the
    # crossing point (if the edge crosses).
    out = np.empty((2 * n, 2), dtype=np.float64)
    keep = np.zeros(2 * n, dtype=bool)
    out[0::2] = verts
    keep[0::2] = inside
    out[1::2] = cross_pts
    keep[1::2] = crossing
    ring = out[keep]

    # _from_clip_ring dedup: sequential compare-to-last-kept, then drop
    # trailing vertices that coincide with the first.  The ring is tiny
    # (<= a dozen rows), so the Python loop costs nothing and replicates
    # the scalar semantics exactly.
    cleaned: List[int] = []
    for i in range(len(ring)):
        if not cleaned or _far_enough_xy(
            ring[cleaned[-1], 0], ring[cleaned[-1], 1], ring[i, 0], ring[i, 1]
        ):
            cleaned.append(i)
    while len(cleaned) > 1 and not _far_enough_xy(
        ring[cleaned[0], 0],
        ring[cleaned[0], 1],
        ring[cleaned[-1], 0],
        ring[cleaned[-1], 1],
    ):
        cleaned.pop()
    return ring[cleaned]


def _far_enough_xy(ax: float, ay: float, bx: float, by: float) -> bool:
    """Scalar ``_far_enough`` on raw coordinates (same expression)."""
    return abs(ax - bx) > BOUNDARY_EPS or abs(ay - by) > BOUNDARY_EPS


# ----------------------------------------------------------------------
# tuple-ring clipping (the hot representation inside the kernel batches)
#
# NumPy pays ~1-2 microseconds of dispatch per operation, which swamps the
# arithmetic on a 6-vertex ring; profiling showed an array-based clip is
# *slower* than the scalar one.  The batch kernels therefore keep each
# cell as a plain list of (x, y) float tuples and clip with the loop
# below — bit-identical to ``ConvexPolygon.clip_halfplane`` but without
# the Point/Halfplane object churn — and reserve the array operations for
# the places where the operands are genuinely large (the per-pop member
# masks, candidate distance batches and the Phi-pruning matrices).
# ----------------------------------------------------------------------
def ring_of_polygon(polygon: ConvexPolygon) -> List[Tuple[float, float]]:
    """A scalar polygon as a list of ``(x, y)`` tuples."""
    return [(v.x, v.y) for v in polygon.vertices]


def ring_of_rect(rect: Rect) -> List[Tuple[float, float]]:
    """A rectangle's CCW corner ring as coordinate tuples."""
    return [
        (rect.xmin, rect.ymin),
        (rect.xmax, rect.ymin),
        (rect.xmax, rect.ymax),
        (rect.xmin, rect.ymax),
    ]


def polygon_from_ring(ring: Sequence[Tuple[float, float]]) -> ConvexPolygon:
    """Rebuild a scalar polygon from a clip-ring (see
    :func:`polygon_from_array` for why normalisation is skipped)."""
    polygon = ConvexPolygon.__new__(ConvexPolygon)
    polygon._vertices = tuple(Point(x, y) for x, y in ring)
    return polygon


def ring_distances(ring: Sequence[Tuple[float, float]], sx: float, sy: float):
    """Site-to-vertex distances of a ring (``Point.distance_to`` formula)."""
    sqrt = math.sqrt
    return [
        sqrt((sx - x) * (sx - x) + (sy - y) * (sy - y)) for x, y in ring
    ]


def clip_ring(ring, a: float, b: float, c: float):
    """Clip a tuple ring with the closed halfplane ``a*x + b*y <= c``.

    Bit-identical to ``ConvexPolygon.clip_halfplane`` + ``_from_clip_ring``
    (same tolerance, same emission order, same dedup); returns a new list
    (fewer than 3 tuples = empty).
    """
    n = len(ring)
    if n < 3:
        return ring
    norm = math.sqrt(a * a + b * b)
    tol = BOUNDARY_EPS * (norm if norm > 0.0 else max(1.0, abs(c)))
    values = [a * x + b * y - c for x, y in ring]
    if max(values) <= tol:
        return ring
    if min(values) >= -tol:
        return []
    out: List[Tuple[float, float]] = []
    append = out.append
    for i in range(n):
        j = i + 1 if i + 1 < n else 0
        vc = values[i]
        vn = values[j]
        cur_in = vc <= tol
        if cur_in:
            append(ring[i])
        if cur_in != (vn <= tol):
            t = vc / (vc - vn)
            if t < 0.0:  # clamped like ConvexPolygon.clip_halfplane
                t = 0.0
            elif t > 1.0:
                t = 1.0
            x0, y0 = ring[i]
            x1, y1 = ring[j]
            append((x0 + t * (x1 - x0), y0 + t * (y1 - y0)))
    # _from_clip_ring dedup: drop ring-consecutive near-duplicates, then
    # trailing vertices that coincide with the first (inlined _far_enough).
    eps = BOUNDARY_EPS
    cleaned: List[Tuple[float, float]] = []
    lx = ly = 0.0
    for p in out:
        px, py = p
        if not cleaned or abs(lx - px) > eps or abs(ly - py) > eps:
            cleaned.append(p)
            lx = px
            ly = py
    if cleaned:
        fx, fy = cleaned[0]
        while len(cleaned) > 1:
            tx, ty = cleaned[-1]
            if abs(fx - tx) > eps or abs(fy - ty) > eps:
                break
            cleaned.pop()
    return cleaned


def refine_ring_nearest_first(ring, sx, sy, oxs, oys, ds, vdist, reach):
    """Nearest-first bisector clipping with Lemma-1 early termination.

    The ring-based engine behind :func:`clip_halfplanes_nearest_first`:
    candidates ``(oxs, oys)`` are pre-sorted by ascending distance ``ds``
    (plain Python lists), ``vdist``/``reach`` cache the ring's
    site-to-vertex distances and influence radius.  Replicates the scalar
    walk of the filter's ``_admits`` / the BatchVoronoi pre-refinement
    decision-for-decision: stop at the first candidate beyond the
    (continuously updated) radius, clip every candidate that beats a
    current vertex, never revisit a candidate skipped by Lemma 1.

    Returns ``(ring, vdist, reach, clips)``.

    Implementation: between two clips the ring is constant, so the whole
    run of candidates up to the radius cut-off is tested with one
    ``(rows, |ring|)`` distance matrix instead of per-candidate Python
    loops; the first hit row is the next clip, and everything after it is
    re-tested against the clipped ring in the next round.  The
    per-element arithmetic — subtract, square, add, correctly-rounded
    sqrt, compare — is exactly the scalar walk's, so every hit/miss
    decision is identical.  ``ds`` is ascending, so the Lemma-1 radius
    cut-off is a prefix found by bisection.
    """
    clips = 0
    n = len(ds)
    if n == 0 or len(ring) < 3:
        return ring, vdist, reach, clips
    oxa = np.asarray(oxs, dtype=np.float64)
    oya = np.asarray(oys, dtype=np.float64)
    i = 0
    while i < n:
        # Candidates i..limit-1 pass the radius pre-check under the
        # current reach; the scalar loop breaks at the first one beyond.
        limit = bisect.bisect_right(ds, reach, i)
        if limit == i:
            break
        gxa = np.array([p[0] for p in ring])
        gya = np.array([p[1] for p in ring])
        vda = np.asarray(vdist, dtype=np.float64)
        # Lemma 1 for the whole run: a candidate refines iff it beats some
        # current vertex (dx = ox - gx, exactly the scalar expression).
        dx = oxa[i:limit, None] - gxa[None, :]
        dy = oya[i:limit, None] - gya[None, :]
        hit_rows = (np.sqrt(dx * dx + dy * dy) < vda[None, :]).any(axis=1)
        hits = np.flatnonzero(hit_rows)
        if hits.size == 0:
            break
        h = i + int(hits[0])
        ox = float(oxa[h])  # exact: keeps the clip arithmetic on Python floats
        oy = float(oya[h])
        a = 2.0 * (ox - sx)
        b = 2.0 * (oy - sy)
        c = (ox * ox + oy * oy) - (sx * sx + sy * sy)
        ring = clip_ring(ring, a, b, c)
        vdist = ring_distances(ring, sx, sy)
        reach = 2.0 * max(vdist) if vdist else 0.0
        clips += 1
        if len(ring) < 3:
            break
        i = h + 1
    return ring, vdist, reach, clips


def _wrapped_successors(vx, vy):
    """``(v[i+1 mod n])`` coordinate arrays via slice assignment."""
    n = len(vx)
    wx = np.empty_like(vx)
    wy = np.empty_like(vy)
    wx[: n - 1] = vx[1:]
    wx[n - 1] = vx[0]
    wy[: n - 1] = vy[1:]
    wy[n - 1] = vy[0]
    return wx, wy


def clip_halfplanes_nearest_first(
    verts,
    sx: float,
    sy: float,
    ox,
    oy,
    d,
    vdist,
    reach: float,
):
    """Nearest-first bisector clipping with Lemma-1 early termination.

    The batch form of the scalar filter ``_admits`` /
    ``_MemberState.refine`` inner loop: given a site ``(sx, sy)``, its
    current cell ``verts`` (with cached site-to-vertex distances ``vdist``
    and influence radius ``reach``), and candidate neighbours ``(ox, oy)``
    already sorted by ascending distance ``d``, clip the cell by each
    neighbour that passes the Lemma-1 test, stopping at the first neighbour
    beyond the (continuously updated) influence radius.

    Decision-equivalence with the scalar loop: the candidates are sorted,
    so "stop at the first ``d > reach``" equals "only the prefix with
    ``d <= reach`` remains eligible"; a candidate skipped by Lemma 1 under
    an earlier (larger) cell is never revisited by the scalar loop either.
    Each round therefore finds the *first* eligible refiner with one
    vectorised Lemma-1 test, clips, and resumes after it.

    Returns ``(verts, vdist, reach, clips)`` where ``clips`` is the number
    of refinements performed (the scalar loop's ``stats.refinements``
    contribution, computed analytically here).

    This array-facing API delegates to the tuple-ring engine
    (:func:`refine_ring_nearest_first`), which profiling showed beats a
    fully array-based formulation on the tiny rings this workload
    produces.
    """
    ring = [(float(x), float(y)) for x, y in verts]
    ring, vd, reach, clips = refine_ring_nearest_first(
        ring, sx, sy, ox.tolist(), oy.tolist(), d.tolist(),
        list(vdist.tolist()) if hasattr(vdist, "tolist") else list(vdist),
        float(reach),
    )
    if ring:
        out = np.array(ring, dtype=np.float64)
    else:
        out = np.empty((0, 2), dtype=np.float64)
    return out, np.array(vd, dtype=np.float64), reach, clips


# ----------------------------------------------------------------------
# point containment (the pair-reporting shortcut)
# ----------------------------------------------------------------------
def points_in_polygon(verts, px, py, margin: float):
    """Vectorised ``ConvexPolygon._contains_point`` over many points.

    ``margin`` follows the scalar convention: ``+eps`` is the strict
    interior test, ``-eps`` the closed test.  Empty polygons contain
    nothing.  Returns a boolean array over the points.
    """
    n = len(verts)
    if n < 3:
        return np.zeros(len(px), dtype=bool)
    vx = verts[:, 0]
    vy = verts[:, 1]
    wx, wy = _wrapped_successors(vx, vy)
    ex = wx - vx
    ey = wy - vy
    # Threshold per edge: margin * max(1, |dx| + |dy|), as in the scalar.
    thresh = margin * np.maximum(1.0, np.abs(ex) + np.abs(ey))
    cross = ex[:, None] * (py[None, :] - vy[:, None]) - ey[:, None] * (
        px[None, :] - vx[:, None]
    )
    return ~np.any(cross < thresh[:, None], axis=0)


# ----------------------------------------------------------------------
# separating-axis tests (the join predicate and the filter tests)
# ----------------------------------------------------------------------
def sat_intersects(verts_a, verts_b, boundary_counts: bool) -> bool:
    """Convex/convex intersection via the separating-axis theorem.

    The vectorised twin of ``ConvexPolygon.intersects``
    (``boundary_counts=True``, the closed test) and
    ``ConvexPolygon.intersects_interior`` (``False``, the open test that
    excludes zero-area contacts), including the empty-polygon guards.
    """
    if len(verts_a) < 3 or len(verts_b) < 3:
        return False
    return not (
        _axis_separates(verts_a, verts_b, boundary_counts)
        or _axis_separates(verts_b, verts_a, boundary_counts)
    )


def _axis_separates(polygon, other, boundary_counts: bool) -> bool:
    """Whether some edge normal of ``polygon`` separates the two hulls —
    all edges tested in one shot (the boolean is order-independent)."""
    eps = BOUNDARY_EPS
    vx = polygon[:, 0]
    vy = polygon[:, 1]
    wx, wy = _wrapped_successors(vx, vy)
    nx = wy - vy
    ny = vx - wx
    norm = np.sqrt(nx * nx + ny * ny)
    valid = norm >= eps  # scalar: degenerate edges are skipped
    # Projections of both hulls onto every edge normal, relative to the
    # edge's base vertex (same expression as the scalar generator).
    self_proj = (polygon[None, :, 0] - vx[:, None]) * nx[:, None] + (
        polygon[None, :, 1] - vy[:, None]
    ) * ny[:, None]
    other_proj = (other[None, :, 0] - vx[:, None]) * nx[:, None] + (
        other[None, :, 1] - vy[:, None]
    ) * ny[:, None]
    self_max = self_proj.max(axis=1)
    other_min = other_proj.min(axis=1)
    margin = eps * norm if boundary_counts else -(eps * norm)
    separated = valid & (other_min > np.maximum(self_max, 0.0) + margin)
    return bool(separated.any())


def sat_intersects_rect(verts, rect: Rect, boundary_counts: bool = True) -> bool:
    """``ConvexPolygon.intersects_rect``: SAT against the rectangle's ring."""
    if len(verts) < 3:
        return False
    return sat_intersects(verts, rect_to_array(rect), boundary_counts)


# ----------------------------------------------------------------------
# array-side measures (bit-identical to the scalar counterparts)
# ----------------------------------------------------------------------
def bounding_rect_of(verts) -> Rect:
    """``ConvexPolygon.bounding_rect`` of a non-empty vertex array."""
    if len(verts) == 0:
        raise ValueError("bounding rectangle of an empty polygon is undefined")
    xs = verts[:, 0]
    ys = verts[:, 1]
    return Rect(float(xs.min()), float(ys.min()), float(xs.max()), float(ys.max()))


def rects_intersect_mask(
    xmin, ymin, xmax, ymax, oxmin: float, oymin: float, oxmax: float, oymax: float
):
    """Vectorised ``Rect.intersects`` of many rectangles against one."""
    return ~(
        (xmax < oxmin) | (oxmax < xmin) | (ymax < oymin) | (oymax < ymin)
    )


ConvexPolygonArrays = Tuple["np.ndarray", "np.ndarray"]
