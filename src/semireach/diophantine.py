"""Exact integer linear algebra: Hermite normal form, linear systems over Z
with parity side constraints, nonnegative integer combinations, and
one-dimensional semilinear (arithmetic progression) sets."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from math import gcd
from typing import Optional, Sequence

from .core import xgcd


# ---------------------------------------------------------------------------
# Hermite normal form


def hnf(A: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[list[int]]]:
    """Row Hermite normal form: returns (H, U) with H == U*A, U unimodular.

    Pivots are positive, entries above a pivot are reduced into [0, pivot).
    """
    m = len(A)
    n = len(A[0]) if m else 0
    H = [list(row) for row in A]
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if H[i][c] != 0), None)
        if piv is None:
            continue
        H[r], H[piv] = H[piv], H[r]
        U[r], U[piv] = U[piv], U[r]
        for i in range(r + 1, m):
            if H[i][c] == 0:
                continue
            a, b = H[r][c], H[i][c]
            u, v, g = xgcd(a, b)
            aa, bb = a // g, b // g
            # [[u, v], [-bb, aa]] has determinant 1
            H[r], H[i] = ([u * x + v * y for x, y in zip(H[r], H[i])],
                          [-bb * x + aa * y for x, y in zip(H[r], H[i])])
            U[r], U[i] = ([u * x + v * y for x, y in zip(U[r], U[i])],
                          [-bb * x + aa * y for x, y in zip(U[r], U[i])])
        if H[r][c] < 0:
            H[r] = [-x for x in H[r]]
            U[r] = [-x for x in U[r]]
        p = H[r][c]
        for i in range(r):
            q = H[i][c] // p
            if q:
                H[i] = [x - q * y for x, y in zip(H[i], H[r])]
                U[i] = [x - q * y for x, y in zip(U[i], U[r])]
        r += 1
    return H, U


# ---------------------------------------------------------------------------
# Linear systems over Z


@dataclass(frozen=True)
class LinearSystem:
    """Rows * x == rhs over Z with free variables and optional parity
    constraints (sum over an index set == r mod 2).  At least one row;
    a zero row poses no equation."""

    rows: tuple
    rhs: tuple
    parities: tuple = ()  # ((indices...), r) pairs

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        object.__setattr__(self, "rhs", tuple(self.rhs))
        object.__setattr__(
            self, "parities",
            tuple((tuple(ix), r % 2) for ix, r in self.parities))
        if not self.rows or len(self.rows) != len(self.rhs):
            raise ValueError("row/rhs dimension mismatch")
        if any(len(r) != len(self.rows[0]) for r in self.rows):
            raise ValueError("rows of unequal length")


@dataclass(frozen=True)
class LinearResult:
    kind: str  # "some" | "none"
    particular: Optional[tuple] = None  # one solution
    basis: tuple = ()  # the solutions are particular + the span of basis


def _solve_free(rows, rhs) -> Optional[tuple[list[int], list[list[int]]]]:
    """All-free integer solve; returns (particular, kernel basis) or None."""
    m, n = len(rows), len(rows[0]) if rows else 0
    if n == 0:
        return ([], []) if all(b == 0 for b in rhs) else None
    At = [[rows[i][j] for i in range(m)] for j in range(n)]
    Ht, Ut = hnf(At)  # Ht == Ut * A^T, so A * Ut^T == Ht^T
    V = [[Ut[j][i] for j in range(n)] for i in range(n)]  # columns of Ut^T
    L = [[Ht[j][i] for j in range(n)] for i in range(m)]  # A*V, column echelon
    pivots = []  # (row, col) per nonzero column, increasing rows
    for j in range(n):
        p = next((i for i in range(m) if L[i][j] != 0), None)
        if p is None:
            break
        pivots.append((p, j))
    y = [0] * n
    res = list(rhs)
    for p, j in pivots:
        if res[p] % L[p][j] != 0:
            return None
        y[j] = res[p] // L[p][j]
        for i in range(m):
            res[i] -= y[j] * L[i][j]
    if any(res):
        return None
    part = [sum(V[i][j] * y[j] for j in range(n)) for i in range(n)]
    free_cols = range(len(pivots), n)
    basis = [[V[i][j] for i in range(n)] for j in free_cols]
    return part, basis


def solve_linear(sys: LinearSystem) -> LinearResult:
    """Decide a linear system over Z exactly, with a general-solution
    description.  Parity constraints become extra equations with fresh
    free variables."""
    nvars = len(sys.rows[0])
    extra = len(sys.parities)
    rows = [list(r) + [0] * extra for r in sys.rows]
    rhs = list(sys.rhs)
    for k, (ix, r) in enumerate(sys.parities):
        row = [0] * (nvars + extra)
        for i in ix:
            row[i] += 1
        row[nvars + k] = -2
        rows.append(row)
        rhs.append(r)
    sol = _solve_free(rows, rhs)
    if sol is None:
        return LinearResult("none")
    part, basis = sol
    return LinearResult("some", particular=tuple(part[:nvars]),
                        basis=tuple(tuple(h[:nvars]) for h in basis))


def solution_values(coeffs: Sequence[int], sys: LinearSystem) -> list:
    """The values sum(coeffs_i * x_i) over the integer solutions x of
    sys, as rays: none without a solution, else the particular
    solution's value w0 plus the multiples of the gcd h of the basis
    images, (w0, h) and (w0, -h), or the singleton (w0, 0) when h == 0."""
    res = solve_linear(sys)
    if res.kind != "some":
        return []
    w0 = sum(c * x for c, x in zip(coeffs, res.particular))
    h = 0
    for vec in res.basis:
        h = gcd(h, sum(c * x for c, x in zip(coeffs, vec)))
    return [(w0, h), (w0, -h)] if h else [(w0, 0)]


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
    """Mixed-sign case: integer solve, then shift into the nonneg cone
    with parity-even zero-sum bundles."""
    rows = [tuple(coeffs)]
    rhs = [target]
    parities = [(tuple(i for i, f in enumerate(flips) if f), parity)]
    res = solve_linear(LinearSystem(tuple(rows), tuple(rhs),
                                    tuple(parities)))
    if res.kind != "some":
        return None
    z = list(res.particular)
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
        flagged = tuple(i for i, f in enumerate(flips) if f)
        comps = []
        for q in parities:
            comps += solution_values(coeffs, LinearSystem(
                ((0,) * len(coeffs),), (0,), ((flagged, q),)))
        return SemilinearSet(tuple(comps))
    sign = -1 if has_neg else 1
    vals = [sign * c for c in coeffs]
    if not any(vals):
        return SemilinearSet.singleton(0)
    dist, _, mod, _ = _residue_minima(vals, flips)
    return SemilinearSet(tuple((sign * d, sign * mod)
                               for u, d in enumerate(dist)
                               if u % 2 in parities and d < math.inf))
