"""Analytic coherence formulas and optimal-placement constructions.

Covers unit-weight cycles, paths, perfect M-ary trees (two leaders whose
lowest common ancestor is the root), and the optimal two noise-corrupted
leaders on even cycles. Gap vectors describe leader placements by the
inter-leader distances:

* cycle: k gaps, each >= 1, summing to n;
* path: k + 1 gaps (distance from the left end, k - 1 interior gaps,
  distance from the right end); end gaps may be 0, interiors are >= 1,
  and the total is n - 1.

Every formula here is cross-validated against the grounded-trace route by
the test suite; where a published form is suspect (see
:func:`cycle_nc_two_printed_series`) the trace computation is the
authoritative value and the series is retained only for comparison.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .coherence import coherence_nc
from .errors import (
    BadGapVectorError,
    BadGeometryError,
    BadParameterError,
    OddCycleLengthError,
)
from .graphs import PerfectTree, _is_int, _require_int, build_cycle, build_perfect_tree
from .selection import brute_force_select

# ---------------------------------------------------------------------------
# cycles, noise-free


def _check_gaps(gaps, minimum: int, kind: str) -> tuple[int, ...]:
    gaps = tuple(gaps)
    for c in gaps:
        if not _is_int(c):
            raise BadGapVectorError(f"{kind} gap {c!r} is not an integer")
        if c < minimum:
            raise BadGapVectorError(f"{kind} gap {c} below minimum {minimum}")
    return tuple(map(int, gaps))


def _check_cycle_gaps(gaps) -> tuple[int, ...]:
    c = _check_gaps(gaps, 1, "cycle")
    if not c:
        raise BadGapVectorError("cycle gap vector is empty")
    return c


def cycle_nf_coherence(gaps, n: int | None = None) -> float:
    """Noise-free coherence of a unit cycle from its inter-leader gaps.

    For k leaders with consecutive distances c the value is
    (c.c - k) / 12; every node being a leader (all gaps 1) gives 0.
    """
    c = _check_cycle_gaps(gaps)
    total = sum(c)
    if n is not None:
        _require_int("n", n)
        if total != n:
            raise BadGapVectorError(f"gaps sum to {total}, expected n={n}")
    if total < 3:
        raise BadGapVectorError(f"gaps sum to {total}, a cycle needs n >= 3")
    return (sum(ci * ci for ci in c) - len(c)) / 12.0


def cycle_nf_optimal(n: int, k: int) -> tuple[tuple[int, ...], float]:
    """Optimal gap multiset for k noise-free leaders on an n-cycle.

    With n = k*l + q the optimum uses k - q gaps of l and q gaps of l + 1,
    in any rotation; the sorted multiset is the canonical representative.
    """
    _require_int("n", n)
    _require_int("k", k)
    if n < 3:
        raise BadParameterError(f"cycle needs n >= 3, got {n}")
    if not (1 <= k <= n):
        raise BadParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    base, extra = divmod(n, k)
    gaps = (base,) * (k - extra) + (base + 1,) * extra
    return gaps, cycle_nf_coherence(gaps, n=n)


def cycle_leaders_from_gaps(gaps) -> tuple[int, ...]:
    """Realize a cycle gap vector as 0-based leader positions from node 0."""
    c = _check_cycle_gaps(gaps)
    pos = [0]
    for ci in c[:-1]:
        pos.append(pos[-1] + ci)
    return tuple(pos)


def _leader_ids(leaders) -> list[int]:
    """Sorted unique leader ids; every id must be an integer."""
    given = list(leaders)
    for v in given:
        if not _is_int(v):
            raise BadParameterError(f"leader id must be an integer, got {v!r}")
    return sorted({int(v) for v in given})


def gaps_from_cycle_leaders(n: int, leaders) -> tuple[int, ...]:
    _require_int("n", n)
    S = _leader_ids(leaders)
    if not S or S[0] < 0 or S[-1] >= n:
        raise BadParameterError(f"leaders {leaders!r} invalid for an {n}-cycle")
    gaps = [S[i + 1] - S[i] for i in range(len(S) - 1)]
    gaps.append(S[0] + n - S[-1])
    return tuple(gaps)


def canonical_gap_rotation(gaps) -> tuple[int, ...]:
    """Lexicographically smallest rotation, the emitted representative."""
    c = _check_cycle_gaps(gaps)
    return min(tuple(c[i:] + c[:i]) for i in range(len(c)))


# ---------------------------------------------------------------------------
# paths, noise-free


def _check_path_gaps(gaps) -> tuple[int, ...]:
    c = tuple(gaps)
    if len(c) < 2:
        raise BadGapVectorError("path gap vector needs at least 2 entries")
    ends = _check_gaps((c[0], c[-1]), 0, "path end")
    interior = _check_gaps(c[1:-1], 1, "path interior")
    if sum(ends) + sum(interior) + 1 < 2:
        raise BadGapVectorError("gap vector describes a path with fewer than 2 nodes")
    return (ends[0],) + interior + (ends[1],)


def path_nf_coherence(gaps) -> float:
    """Noise-free coherence of a unit path from its gap vector.

    The two end runs contribute (c^2 + c) / 4 in total across both ends
    and every interior gap contributes (c^2 - 1) / 12.
    """
    c = _check_path_gaps(gaps)
    e0, e1, interior = c[0], c[-1], c[1:-1]
    return 0.25 * (e0 * e0 + e1 * e1 + e0 + e1) + sum(
        ci * ci - 1 for ci in interior
    ) / 12.0


def path_leaders_from_gaps(gaps) -> tuple[int, ...]:
    """Realize a path gap vector as 0-based leader positions."""
    c = _check_path_gaps(gaps)
    pos = [c[0]]
    for ci in c[1:-1]:
        pos.append(pos[-1] + ci)
    return tuple(pos)


def gaps_from_path_leaders(n: int, leaders) -> tuple[int, ...]:
    _require_int("n", n)
    S = _leader_ids(leaders)
    if not S or S[0] < 0 or S[-1] >= n:
        raise BadParameterError(f"leaders {leaders!r} invalid for an {n}-path")
    gaps = [S[0]]
    gaps.extend(S[i + 1] - S[i] for i in range(len(S) - 1))
    gaps.append(n - 1 - S[-1])
    return tuple(gaps)


def path_nf_optimal(n: int, k: int) -> tuple[tuple[int, ...], float]:
    """Exact optimal gap vector for k noise-free leaders on an n-path.

    The objective is separable and convex in the gaps, so greedy marginal
    allocation is exact: start from the minimal feasible vector (ends 0,
    interiors 1) and repeatedly grow the gap with the cheapest marginal
    cost. Marginals are (c + 1) / 2 for an end at c and (2c + 1) / 12 for
    an interior at c; ties resolve to the lowest slot index.
    """
    _require_int("n", n)
    _require_int("k", k)
    if n < 2:
        raise BadParameterError(f"path needs n >= 2, got {n}")
    if not (1 <= k <= n):
        raise BadParameterError(f"need 1 <= k <= n, got k={k}, n={n}")
    slots = [0] + [1] * (k - 1) + [0]

    def marginal(idx: int) -> float:
        c = slots[idx]
        if idx == 0 or idx == k:
            return (c + 1) / 2.0
        return (2 * c + 1) / 12.0

    heap = [(marginal(i), i) for i in range(k + 1)]
    heapq.heapify(heap)
    remaining = (n - 1) - (k - 1)
    while remaining > 0:
        _, idx = heapq.heappop(heap)
        slots[idx] += 1
        remaining -= 1
        heapq.heappush(heap, (marginal(idx), idx))
    gaps = tuple(slots)
    return gaps, path_nf_coherence(gaps)


def _round_half_away(x: float) -> int:
    return math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)


def path_nf_round_construction(n: int, k: int):
    """The closed rounding construction for the path optimum, when usable.

    Valid only under its divisibility conditions (even total end length,
    interior length divisible by k - 1); returns None otherwise. Callers
    must verify the result against :func:`path_nf_optimal`, since the
    conditions fail for many sizes.
    """
    _require_int("n", n)
    _require_int("k", k)
    if n < 2 or not (1 <= k <= n):
        raise BadParameterError(f"need n >= 2 and 1 <= k <= n, got n={n}, k={k}")
    q = _round_half_away((2 * (n - 1) - 3 * (k - 1)) / (6 * (k - 1) + 4))
    if q < 0:
        return None
    body = (n - 1) - 2 * q
    if k == 1:
        if body != 0:
            return None
        return (q, q)
    if body < (k - 1) or body % (k - 1) != 0:
        return None
    inner = body // (k - 1)
    return (q,) + (inner,) * (k - 1) + (q,)


# ---------------------------------------------------------------------------
# perfect M-ary trees, two noise-free leaders


@dataclass(frozen=True)
class TreeGeometry:
    """Two-leader placement in a perfect M-ary tree, lowest common
    ancestor at the root: distances leader-to-root and leader-to-leader."""

    branching: int
    height: int
    d_xr: int
    d_xy: int

    def __post_init__(self):
        M, h, dxr, dxy = self.branching, self.height, self.d_xr, self.d_xy
        for name in ("branching", "height", "d_xr", "d_xy"):
            value = getattr(self, name)
            if not _is_int(value):
                raise BadGeometryError(f"{name} must be an integer, got {value!r}")
        if M < 2:
            raise BadGeometryError(f"branching must be >= 2, got {M}")
        if h < 1:
            raise BadGeometryError(f"height must be >= 1, got {h}")
        if dxy < 1:
            raise BadGeometryError(f"leader distance must be >= 1, got {dxy}")
        if not (0 <= dxr <= dxy):
            raise BadGeometryError(f"need 0 <= d_xr <= d_xy, got {dxr}, {dxy}")
        if dxr > h or dxy - dxr > h:
            raise BadGeometryError(
                f"placement (d_xr={dxr}, d_xy={dxy}) does not fit height {h}"
            )


def tree_omega(branching: int, height: int, d_xr: int, d_xy: int) -> float:
    """Total two-leader resistance sum (twice the coherence) in a perfect
    M-ary tree, for leaders at root distances d_xr and d_xy - d_xr.

    Symmetric under d_xr -> d_xy - d_xr; covers d_xr = 0 (one leader at
    the root) as the boundary case.
    """
    TreeGeometry(branching, height, d_xr, d_xy)
    M, h = branching, height
    top = float(M ** (h + 1))
    m1 = M - 1.0
    t1 = (top + 1.0) / m1 * (d_xr - d_xr * d_xr / d_xy)
    t2 = (
        top
        * (2.0 / m1**2 + (M + 1.0) / (m1**3 * d_xy))
        * (float(M) ** (d_xr - d_xy) + float(M) ** (-d_xr))
    )
    t3 = top * (h / m1 - 3.0 / m1**2 - 2.0 * (M + 1.0) / (m1**3 * d_xy))
    t4 = d_xy / m1 + M / m1**2
    return t1 + t2 + t3 + t4


def tree_two_leader_coherence(branching: int, height: int, d_xr: int,
                              d_xy: int) -> float:
    """Noise-free coherence of the placement: half the resistance sum."""
    return 0.5 * tree_omega(branching, height, d_xr, d_xy)


def valid_tree_geometries(branching: int, height: int):
    """All (d_xr, d_xy) placements with the lowest common ancestor at the
    root, including mirror-image duplicates."""
    _require_int("branching", branching)
    _require_int("height", height)
    return ((d_xr, d_xy) for d_xy in range(1, 2 * height + 1)
            for d_xr in range(max(0, d_xy - height), min(height, d_xy) + 1))


def tree_pair_for_geometry(ptree: PerfectTree, d_xr: int, d_xy: int) -> tuple[int, int]:
    """Leftmost node pair realizing the placement in a built tree."""
    TreeGeometry(ptree.branching, max(1, ptree.height), d_xr, d_xy)
    if d_xr > ptree.height or d_xy - d_xr > ptree.height:
        raise BadGeometryError("placement does not fit the built tree")

    def descend(start: int, depth: int) -> int:
        node = start
        for _ in range(depth - 1):
            node = ptree.children(node)[0]
        return node

    d_yr = d_xy - d_xr
    root_children = ptree.children(ptree.root)
    if d_xr == 0:
        return ptree.root, descend(root_children[0], d_yr)
    if d_yr == 0:
        return descend(root_children[0], d_xr), ptree.root
    return descend(root_children[0], d_xr), descend(root_children[1], d_yr)


def tree_pair_geometry(ptree: PerfectTree, x: int, y: int):
    """(d_xr, d_yr, d_xy, lca) of a node pair in a rooted tree.

    Reads only ``levels`` and ``parents``, so a ``GrowingTree`` works too.
    """
    lx, ly = ptree.levels[x], ptree.levels[y]
    a, b = x, y
    da, db = lx, ly
    while da > db:
        a = ptree.parents[a]
        da -= 1
    while db > da:
        b = ptree.parents[b]
        db -= 1
    while a != b:
        a = ptree.parents[a]
        b = ptree.parents[b]
        da -= 1
    return lx, ly, lx + ly - 2 * da, a


@dataclass(frozen=True)
class TreeOptimum:
    """Result of the two-leader tree optimization."""

    branching: int
    height: int
    d_xr: int
    d_xy: int
    value: float
    pair: tuple[int, int]
    exhaustive_fallback: bool = False


def _tree_optimal_value(branching: int, height: int) -> float:
    """Closed-form optimal coherence; exploits log_M(M^(h+1)) = h + 1."""
    M, h = branching, height
    n = (M ** (h + 1) - 1) // (M - 1)
    if M == 2:
        return (n + 1) / 2.0 * ((h + 1) - 25.0 / 8.0) + 3.5
    if M == 3:
        return (2 * n + 1) / 4.0 * ((h + 1) - 2.0) + 1.0
    return (
        0.5 * (n + 1.0 / (M - 1)) * (h + 1)
        - n * (M * M + M - 1) / (2.0 * M * (M - 1))
        + 1.0 / (2.0 * M)
    )


def optimal_tree_geometry(branching: int) -> tuple[int, int]:
    """Height-independent optimal (d_xr, d_xy) for two leaders, h >= 4."""
    if branching == 2:
        return 2, 4
    if branching == 3:
        return 1, 2
    return 0, 1


def tree_optimal_two(branching: int, height: int) -> TreeOptimum:
    """Optimal two noise-free leaders in a perfect M-ary tree.

    For heights >= 4 the optimum is the analytic placement with its closed
    value. Below that the analytic result is not established, so the
    function falls back to exhaustive search over all node pairs and flags
    it.
    """
    _require_int("branching", branching)
    _require_int("height", height)
    if branching < 2:
        raise BadParameterError(f"branching must be >= 2, got {branching}")
    if height < 1:
        raise BadParameterError(f"height must be >= 1, got {height}")
    ptree = build_perfect_tree(branching, height)
    if height >= 4:
        d_xr, d_xy = optimal_tree_geometry(branching)
        pair = tree_pair_for_geometry(ptree, d_xr, d_xy)
        return TreeOptimum(branching, height, d_xr, d_xy,
                           _tree_optimal_value(branching, height), pair)
    result = brute_force_select(ptree.graph, 2)
    x, y = result.optimal_sets[0]
    d_xr, d_yr, d_xy, _ = tree_pair_geometry(ptree, x, y)
    if d_yr < d_xr:
        d_xr = d_yr
    return TreeOptimum(branching, height, d_xr, d_xy, result.value, (x, y),
                       exhaustive_fallback=True)


# ---------------------------------------------------------------------------
# cycles, two noise-corrupted leaders (unit stubbornness)


def cycle_nc_two_coherence(n: int, i: int) -> float:
    """Noise-corrupted coherence of an n-cycle with leaders at positions
    1 and i (1-based labels), unit stubbornness.

    Grounds the shifted Laplacian. The published series form, which
    disagrees with it, is :func:`cycle_nc_two_printed_series`.
    """
    _require_int("n", n)
    _require_int("i", i)
    if n < 3:
        raise BadParameterError(f"cycle needs n >= 3, got {n}")
    if not (1 <= i <= n):
        raise BadParameterError(f"need 1 <= i <= n, got i={i}")
    leaders = {0, i - 1}
    return coherence_nc(build_cycle(n), sorted(leaders), kappa=1.0).value


def cycle_nc_two_printed_series(n: int, i: int) -> float:
    """The published series form for the two-leader noise-corrupted cycle,
    transcribed verbatim.

    Known to disagree with the grounded-trace value (it even goes
    negative); kept only so the disagreement stays measurable. Use
    :func:`cycle_nc_two_coherence` for real values.
    """
    _require_int("n", n)
    _require_int("i", i)
    lead = (n * n + 6.0 * n - 1.0) / 12.0
    poly = (
        2.0 * i**4
        - 4.0 * i**3 * (n + 2)
        + i**3 * (2.0 * n * n + 6.0 * n + 11.0)
        + i * (2.0 * n * n + n - 6.0)
        + 2.0 * n * n
        - 3.0 * n
        + 1.0
    )
    denom = 12.0 * n * (2.0 + (i - 1.0) * (n - (i - 1.0)) / n)
    return lead - poly / denom


def cycle_nc_sweep(n: int) -> list[tuple[int, float]]:
    """Trace-based values for every distinct-leader separation i in [2, n]."""
    _require_int("n", n)
    if n < 3:
        raise BadParameterError(f"cycle needs n >= 3, got {n}")
    g = build_cycle(n)
    return [
        (i, coherence_nc(g, (0, i - 1), kappa=1.0).value) for i in range(2, n + 1)
    ]


def cycle_nc_optimal_i(n: int) -> int:
    """Optimal 1-based second-leader position on an even cycle."""
    _require_int("n", n)
    if n % 2 != 0:
        raise OddCycleLengthError(f"closed form needs even n, got {n}")
    if n < 4:
        raise BadParameterError(f"need even n >= 4, got {n}")
    return (n + 2) // 2


def cycle_nc_optimal_value(n: int) -> float:
    """Closed-form optimal two-leader noise-corrupted coherence, even n.

    Leaders sit n/2 apart and the value is
    (n^3 + 16 n^2 + 44 n - 16) / (24 (n + 8)).
    """
    cycle_nc_optimal_i(n)
    return (n**3 + 16.0 * n * n + 44.0 * n - 16.0) / (24.0 * (n + 8.0))
