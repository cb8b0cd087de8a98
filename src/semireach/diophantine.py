"""Exact integer arithmetic: parity cosets (integer points with parity
constraints on disjoint index classes), nonnegative integer
combinations, and one-dimensional semilinear (arithmetic progression)
sets."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence

from .core import xgcd


# ---------------------------------------------------------------------------
# Parity cosets


def parity_coset(n: int, classes: Sequence[tuple[Sequence[int], int]],
                 total: Optional[int] = None):
    """The points x of Z^n whose sum over each class (indices, r) is r
    mod 2, the classes being disjoint, and with a total m whose sums over
    the first two classes add up to m: (x0, gens), the points being x0
    plus the integer span of gens, or None when there is no point.

    A class puts its parity on its first index, the head, and each other
    index j of it gets the generator e_j - e_head; its head gets 2*e_head
    when its sum is otherwise free, and an index in no class gets e_i.
    With a total, the second class's head (the first's when the second is
    empty) holds m minus the other class's parity, and 2*(e_h1 - e_h2)
    trades between the two heads."""
    def vec(*entries):
        e = [0] * n
        for i, k in entries:
            e[i] = k
        return e

    x0, gens = [0] * n, []
    heads = [ix[0] if ix else None for ix, _ in classes]
    for (ix, r), h in zip(classes, heads):
        if h is None and r % 2:
            return None
        if h is not None:
            x0[h] = r % 2
            gens += [vec((j, 1), (h, -1)) for j in ix[1:]]
    gens += [vec((h, 2)) for h in heads[0 if total is None else 2:]
             if h is not None]
    covered = {i for ix, _ in classes for i in ix}
    gens += [vec((i, 1)) for i in range(n) if i not in covered]
    if total is not None:
        hu, hv = heads[:2] if heads[1] is not None else heads[1::-1]
        if hv is None:
            return (x0, gens) if total == 0 else None
        rest = total - (0 if hu is None else x0[hu])
        if (rest - x0[hv]) % 2:
            return None
        x0[hv] = rest
        if hu is not None:
            gens.append(vec((hu, 2), (hv, -2)))
    return x0, gens


def coset_values(coset, weights: Sequence[int]) -> list:
    """The values sum(weights_i * x_i) over the points x of a parity
    coset, as rays: the value w0 of x0 plus the multiples of the gcd h of
    the generators' values, (w0, h) and (w0, -h), or the singleton
    (w0, 0) when h == 0."""
    x0, gens = coset
    w0 = sum(w * x for w, x in zip(weights, x0))
    h = 0
    for g in gens:
        h = gcd(h, sum(w * x for w, x in zip(weights, g)))
    return [(w0, h), (w0, -h)] if h else [(w0, 0)]


def coset_point(coset, weights: Sequence[int],
                target: int) -> Optional[list[int]]:
    """A point x of a parity coset with sum(weights_i * x_i) == target,
    or None: x0 plus the generators' combination that xgcd, folded over
    their values, gives for the missing difference."""
    x0, gens = coset
    rest = target - sum(w * x for w, x in zip(weights, x0))
    h, coef = 0, []  # sum(coef_j * value of gens_j) == h
    for g in gens:
        u, v, h = xgcd(h, sum(w * x for w, x in zip(weights, g)))
        coef = [u * c for c in coef] + [v]
    if h == 0:  # every generator has value 0
        return list(x0) if rest == 0 else None
    q, r = divmod(rest, h)
    if r:
        return None
    return [a + q * sum(c * g[i] for c, g in zip(coef, gens))
            for i, a in enumerate(x0)]


# ---------------------------------------------------------------------------
# Nonnegative integer combinations (exact, with explicit coefficients)


def nonneg_combination(coeffs: Sequence[int], target: int,
                       flips: Optional[Sequence[bool]] = None,
                       parity: int = 0) -> Optional[list[int]]:
    """Counts n_i >= 0 with sum(n_i * coeffs_i) == target, optionally with
    sum of flagged counts == parity mod 2.  Exact: None means no solution.
    Same-sign coefficients get a solution with few counts in total.
    """
    coeffs = list(coeffs)
    flips = list(flips) if flips is not None else [False] * len(coeffs)
    parity %= 2
    if parity == 1 and not any(flips):
        return None
    has_pos = any(c > 0 for c in coeffs)
    has_neg = any(c < 0 for c in coeffs)
    if has_pos and has_neg:
        return _mixed_combination(coeffs, target, flips, parity)
    sign = -1 if has_neg else 1
    vals = [sign * c for c in coeffs]
    t = sign * target
    if t < 0:
        return None
    if not any(vals):
        if t != 0:
            return None
        counts = [0] * len(coeffs)
        if parity == 1:
            counts[flips.index(True)] = 1
        return counts
    dist, edge, mod, fill = _residue_minima(vals, flips, limit=t)
    node = 2 * (t % mod) + parity
    if dist[node] > t:
        return None
    counts = _fewest_counts(vals, flips, t, parity, dist, mod, fill)
    if counts is None:
        # the bounded search gave up: walk the table back from t's class
        counts = [0] * len(vals)
        counts[fill] = (t - dist[node]) // vals[fill]
        while node:
            i = edge[node]
            counts[i] += 1
            p = (node % 2) ^ flips[i]
            node = 2 * ((node // 2 - vals[i]) % mod) + p
    return counts


def _residue_minima(vals, flips, limit=None):
    """Least representable sum in each (residue, parity) class.

    The modulus is keyed on the smallest nonzero value a: it is a when
    `fill`, the chosen copy of a, is unflagged, and 2a when it is flagged,
    so that adding the modulus to a sum (with one or two copies of a)
    keeps its parity.  A sum t with flagged-count parity p is therefore
    representable iff dist[2 * (t % mod) + p] <= t, and the table has
    2 * mod <= 4a nodes.  Dijkstra over the classes (Nijenhuis 1979; the
    Apery set of a in Frobenius-problem terms); with a limit, it stops
    once the least unsettled distance exceeds the limit, so an entry
    above the limit only says the class minimum is above it too.
    edge[u] is the coefficient index of the last step of a shortest path
    to u.  Requires vals all >= 0, not all 0.  A flagged zero is a
    free parity flip; other zeros are ignored.
    Returns (dist, edge, mod, fill)."""
    fill = min((i for i, v in enumerate(vals) if v > 0),
               key=lambda i: (vals[i], bool(flips[i])))
    mod = vals[fill] * (2 if flips[fill] else 1)
    # one edge per distinct class shift, the cheapest coefficient for it
    steps = {}
    for i, v in enumerate(vals):
        key = (v % mod, bool(flips[i]))
        if key != (0, False) and \
                (key not in steps or v < vals[steps[key]]):
            steps[key] = i
    steps = [(2 * r, int(f), vals[i], i) for (r, f), i in steps.items()]
    size = 2 * mod
    dist = [math.inf] * size
    edge = [-1] * size
    dist[0] = 0
    heap = [(0, 0)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        if limit is not None and d > limit:
            break
        r2, p = u - u % 2, u % 2
        for shift, f, v, i in steps:
            w = r2 + shift
            if w >= size:
                w -= size
            w += p ^ f
            if d + v < dist[w]:
                dist[w] = d + v
                edge[w] = i
                heapq.heappush(heap, (d + v, w))
    return dist, edge, mod, fill


_DECODE_BUDGET = 1024  # candidate counts tried by _fewest_counts


def _fewest_counts(vals, flips, t, parity, dist, mod, fill):
    """Counts for t with as few terms in total as a bounded search finds,
    or None when it gives up before finding any.

    Depth-first over the other distinct nonzero (value, flag) pairs,
    largest value first, each count from its largest down, so the first
    solution puts as much of t as possible on the larger values; the fill
    value takes the remainder, and one copy of a flagged zero, if there
    is one, may fix the parity.  A remainder is kept only if the residue
    table says it is representable, and a branch is cut once its count
    plus the remainder over the next value cannot beat the best so far.
    At most _DECODE_BUDGET counts are tried in all, whatever t is."""
    a, fa = vals[fill], int(flips[fill])
    zero = next((i for i, (v, f) in enumerate(zip(vals, flips))
                 if v == 0 and f), None)
    others = {}
    for i, v in enumerate(vals):
        if v > 0 and (v, int(flips[i])) != (a, fa):
            others.setdefault((v, int(flips[i])), i)
    others = sorted(others.items(), reverse=True)
    k = len(others)
    chosen = [0] * k
    best = [math.inf, None]  # total, counts
    budget = [_DECODE_BUDGET]

    def search(j, rest, q, total):
        if j == k:
            y, r = divmod(rest, a)
            flip = (y * fa + q) % 2  # copies of the flagged zero
            if r == 0 and (zero is not None or not flip) and \
                    total + y + flip < best[0]:
                best[:] = [total + y + flip, chosen + [y, flip]]
            return
        (v, f), _ = others[j]
        nxt = others[j + 1][0][0] if j + 1 < k else a
        n = rest // v
        while n >= 0 and budget[0] > 0:
            budget[0] -= 1
            r = rest - n * v
            if total + n - (-r // nxt) >= best[0]:
                return
            q2 = q ^ (n * f % 2)
            if j + 1 == k or dist[2 * (r % mod) + q2] <= r:
                chosen[j] = n
                search(j + 1, r, q2, total + n)
            n -= 1

    search(0, t, parity, 0)
    if best[1] is None:
        return None
    counts = [0] * len(vals)
    for (_, i), n in zip(others, best[1]):
        counts[i] = n
    counts[fill] = best[1][-2]
    if zero is not None:
        counts[zero] = best[1][-1]
    return counts


def _mixed_combination(coeffs, target, flips, parity):
    """Mixed-sign case: an integer point, then shift into the nonneg cone
    with parity-even zero-sum bundles."""
    flagged = [i for i, f in enumerate(flips) if f]
    z = coset_point(parity_coset(len(coeffs), [(flagged, parity)]),
                    coeffs, target)
    if z is None:
        return None
    ip = next(i for i, c in enumerate(coeffs) if c > 0)
    im = next(i for i, c in enumerate(coeffs) if c < 0)
    cp, cm = coeffs[ip], coeffs[im]
    # repair negatives with zero-sum, parity-even bundles: raising a
    # positive-coefficient count by 2|cm| together with z[im] by twice its
    # own coefficient leaves the sum unchanged, and symmetrically for
    # negative-coefficient counts against z[ip]; entries only ever grow
    for j, c in enumerate(coeffs):
        if z[j] >= 0:
            continue
        if c == 0:
            z[j] += 2 * ((-z[j] + 1) // 2)
        elif c > 0:
            k = (-z[j] + 2 * abs(cm) - 1) // (2 * abs(cm))
            z[j] += 2 * abs(cm) * k
            z[im] += 2 * c * k
        else:
            k = (-z[j] + 2 * cp - 1) // (2 * cp)
            z[j] += 2 * cp * k
            z[ip] += 2 * abs(c) * k
    assert all(v >= 0 for v in z)
    assert sum(v * c for v, c in zip(z, coeffs)) == target
    assert sum(z[i] for i, f in enumerate(flips) if f) % 2 == parity
    return z


# ---------------------------------------------------------------------------
# Semilinear sets


@dataclass(frozen=True)
class SemilinearSet:
    """Finite union of arithmetic rays {base + k*step : k in N}.

    step may be negative (a downward ray) or zero (a singleton); a full
    residue class b + gZ is the union of the two opposite rays.
    """

    components: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "components",
                           tuple(_prune(self.components)))

    @staticmethod
    def empty() -> "SemilinearSet":
        return SemilinearSet(())

    @staticmethod
    def singleton(v: int) -> "SemilinearSet":
        return SemilinearSet(((v, 0),))

    def is_empty(self) -> bool:
        return not self.components

    def member(self, t: int) -> bool:
        for b, s in self.components:
            d = t - b
            if s > 0:
                if d >= 0 and not d % s:
                    return True
            elif s:
                if d <= 0 and not d % s:
                    return True
            elif not d:
                return True
        return False


def _canonical(comps) -> SemilinearSet:
    """A SemilinearSet of components already pruned and sorted."""
    out = object.__new__(SemilinearSet)
    object.__setattr__(out, "components", comps)
    return out


def _ends(comps):
    """The rays of comps as a table and the singletons as a set.  The
    table maps each step s to a dict from base mod s to the least base of
    those upward rays, or the greatest of the downward ones: that ray
    spans all the others of its class."""
    ends, singles = {}, set()
    for b, s in comps:
        if s:
            r = b % s
            table = ends.get(s)
            if table is None:
                ends[s] = {r: b}
            else:
                e = table.get(r)
                if e is None or (b < e if s > 0 else b > e):
                    table[r] = b
        else:
            singles.add(b)
    return ends, singles


def _maximal(ends, singles) -> list:
    """The rays of the _ends table and the singletons that lie in no
    other ray, sorted.  Only the end of a class can be one of them, and a
    ray lies in a ray of step t only if t divides its step with the same
    sign (any t for a singleton), so each test is one lookup per such
    step."""
    items = list(ends.items())
    out = []
    for s, table in items:
        over = [(t, tt) for t, tt in items
                if t != s and not s % t and (s > 0) == (t > 0)]
        if not over:
            out += [(e, s) for e in table.values()]
            continue
        for e in table.values():
            for t, tt in over:
                f = tt.get(e % t)
                if f is not None and (f <= e if t > 0 else f >= e):
                    break
            else:
                out.append((e, s))
    for x in singles:
        for t, tt in items:
            f = tt.get(x % t)
            if f is not None and (f <= x if t > 0 else f >= x):
                break
        else:
            out.append((x, 0))
    out.sort()
    return out


def _prune(comps) -> list:
    """The distinct rays of comps that lie in no other ray, sorted."""
    return _maximal(*_ends(comps))


def sum_union(rays, pairs) -> SemilinearSet:
    """The union of the rays and of the sumsets comps1 + comps2 of the
    (comps1, comps2) pairs of rays, as a SemilinearSet.

    A singleton shifts the other ray, and rays of opposite signs sum to
    the full class b + gZ, g = gcd(s1, s2), as two rays.  Same-sign rays
    sum to b + g*<u, v>, u = s1/g and v = s2/g coprime: the tail ray from
    the conductor (u-1)(v-1) upward, plus the elements of the numerical
    semigroup <u, v> below it (Sylvester 1884).  The tail rays go in
    first.  A ray of the union whose step divides g contains the elements
    of b + g*<u, v> from its base on, in its direction, so the elements
    below the conductor are listed only between the nearest such bases
    on either side: none when a ray in g's direction contains b."""
    rays = list(rays)
    blocks = []
    for comps1, comps2 in pairs:
        for b1, s1 in comps1:
            for b2, s2 in comps2:
                b = b1 + b2
                if not (s1 and s2):
                    rays.append((b, s1 or s2))
                    continue
                g = gcd(s1, s2)
                if (s1 > 0) != (s2 > 0):
                    rays += ((b, g), (b, -g))
                    continue
                if s1 < 0:
                    g = -g
                u, v = s1 // g, s2 // g
                if u == 1 or v == 1:
                    rays.append((b, g))
                    continue
                cond = (u - 1) * (v - 1)
                rays.append((b + g * cond, g))
                blocks.append((b, g, u, v, cond))
    ends, singles = _ends(rays)
    for b, g, u, v, hi in blocks:
        # list b + g*e for e in <u, v> with lo < e < hi: a ray of step
        # t | g contains all e >= hi (t of g's sign) or all e <= lo
        lo = -1
        for t, table in ends.items():
            if not g % t:
                f = table.get(b % t)
                if f is not None:
                    if (t > 0) == (g > 0):
                        hi = min(hi, -((b - f) // g))
                    else:
                        lo = max(lo, (f - b) // g)
        # below the conductor, i*u + j*v has one such pair (i, j)
        for i in range(0, hi, u):
            e = max(i, lo + 1 + (i - lo - 1) % v)
            singles.update(range(b + g * e, b + g * hi, g * v))
    return _canonical(tuple(_maximal(ends, singles)))


def combo_value_set(coeffs: Sequence[int],
                    flips: Optional[Sequence[bool]] = None,
                    parity: Optional[int] = None) -> SemilinearSet:
    """The set {sum(n_i * coeffs_i) : n_i >= 0}, optionally restricted to
    combinations whose flagged counts sum to parity mod 2, as a
    SemilinearSet.  Exact companion of nonneg_combination.  For
    same-sign coefficients it has one ray per class of the residue table,
    at most twice the smallest nonzero |coefficient| per parity."""
    coeffs = list(coeffs)
    flips = list(flips) if flips is not None else [False] * len(coeffs)
    parities = {0, 1} if parity is None else {parity % 2}
    if not any(flips):
        parities.discard(1)  # nothing flagged: the flagged count is 0
    if not parities:
        return SemilinearSet.empty()
    has_pos = any(c > 0 for c in coeffs)
    has_neg = any(c < 0 for c in coeffs)
    if has_pos and has_neg:
        # any integer solution can be shifted into the nonneg cone by
        # value- and parity-preserving bundles, so the set is the full
        # lattice-coset projection of the unconstrained solutions
        flagged = [i for i, f in enumerate(flips) if f]
        comps = []
        for q in parities:
            comps += coset_values(
                parity_coset(len(coeffs), [(flagged, q)]), coeffs)
        return SemilinearSet(tuple(comps))
    sign = -1 if has_neg else 1
    vals = [sign * c for c in coeffs]
    if not any(vals):
        return SemilinearSet.singleton(0)
    dist, _, mod, _ = _residue_minima(vals, flips)
    return SemilinearSet(tuple((sign * d, sign * mod)
                               for u, d in enumerate(dist)
                               if u % 2 in parities and d < math.inf))
