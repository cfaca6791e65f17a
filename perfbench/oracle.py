"""The answer check: pair-list digests and the cached brute-force reference.

A batch join is correct when its pair list has the same count and digest
as the brute-force oracle's on the same inputs (``brute_force_cij``, the
spec).  The oracle is quadratic, so its digest is computed outside every
timed region and cached on disk under a key derived from the exact inputs
(which fixes workload, seed and size).
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Iterable, Sequence, Tuple

from repro import brute_force_cij


def pairs_digest(pairs: Iterable[Tuple[int, int]]) -> Tuple[int, str]:
    """(count, sha256) of a pair list, independent of its order."""
    ordered = sorted((int(p), int(q)) for p, q in pairs)
    blob = ";".join(f"{p},{q}" for p, q in ordered).encode("ascii")
    return len(ordered), hashlib.sha256(blob).hexdigest()


def inputs_key(points_p: Sequence, points_q: Sequence, domain) -> str:
    hasher = hashlib.sha256()
    for points in (points_p, points_q):
        hasher.update(repr([(pt.x, pt.y) for pt in points]).encode("ascii"))
        hasher.update(b"|")
    hasher.update(repr((domain.xmin, domain.ymin, domain.xmax, domain.ymax)).encode("ascii"))
    return hasher.hexdigest()[:32]


def reference_digest(points_p, points_q, domain, cache_dir: str) -> Tuple[int, str]:
    """The brute-force oracle's (count, digest), cached in ``cache_dir``."""
    path = os.path.join(cache_dir, f"brute-{inputs_key(points_p, points_q, domain)}.json")
    try:
        with open(path, encoding="utf-8") as handle:
            cached = json.load(handle)
        return int(cached["count"]), str(cached["digest"])
    except (OSError, ValueError, KeyError):
        pass
    result = brute_force_cij(points_p, points_q, domain)
    count, digest = pairs_digest(result.pairs)
    os.makedirs(cache_dir, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump({"count": count, "digest": digest}, handle)
    os.replace(tmp, path)
    return count, digest
