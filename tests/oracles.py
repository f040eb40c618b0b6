"""Independent brute-force oracles shared by the test suite.

These deliberately avoid the library's lattice engine: quotient orders are
counted by union-find enumeration over a coordinate box, and memberships by
exhaustive search.  Slow but obviously correct on small inputs.
"""

import itertools


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        p = self.parent
        while p[x] != x:
            x, p[x] = p[x], p[p[x]]
        return x

    def union(self, x, y):
        x, y = self.find(x), self.find(y)
        if x != y:
            self.parent[y] = x

    def count(self):
        return sum(1 for i, p in enumerate(self.parent) if self.find(i) == i)


def quotient_order_by_enumeration(moduli, relation_cols, limit=300_000):
    """|Z^n / (span(relations) + diag(moduli))| by walking the coordinate box.

    Every residue class has a representative in the box prod [0, d_i); two
    representatives are identified whenever they differ by a relation column
    (reduced back into the box, which only adds diagonal relations).
    """
    box = 1
    for d in moduli:
        box *= d
    if box > limit:
        raise ValueError(f"box of size {box} too large for the enumeration oracle")
    n = len(moduli)
    strides = [1] * n
    for i in range(1, n):
        strides[i] = strides[i - 1] * moduli[i - 1]

    def index(vec):
        return sum((vec[i] % moduli[i]) * strides[i] for i in range(n))

    uf = UnionFind(box)
    cols = [tuple(int(c[i]) for i in range(n)) for c in relation_cols]
    for point in itertools.product(*[range(d) for d in moduli]):
        src = index(point)
        for col in cols:
            uf.union(src, index(tuple(point[i] + col[i] for i in range(n))))
    return uf.count()


def subgroup_elements_by_closure(moduli, gens):
    """All elements of the subgroup of prod Z/d_i generated by `gens`."""
    n = len(moduli)
    zero = (0,) * n

    def add(u, v):
        return tuple((u[i] + v[i]) % moduli[i] for i in range(n))

    seen = {zero}
    frontier = [zero]
    gens = [tuple(g[i] % moduli[i] for i in range(n)) for g in gens]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = add(x, g)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def subring_closure(moduli, mul, gens):
    """The smallest subgroup of prod Z/d_i containing `gens` and closed under `mul`.

    Additive spans come from `subgroup_elements_by_closure`; products of
    generator pairs are adjoined until none is new, which suffices because
    `mul` is bilinear.  Returns (elements, generators used).
    """
    gens = [tuple(g[i] % moduli[i] for i in range(len(moduli))) for g in gens]
    while True:
        elems = subgroup_elements_by_closure(moduli, gens)
        new = {mul(u, v) for u in gens for v in gens} - elems
        if not new:
            return frozenset(elems), gens
        gens = gens + sorted(new)


def subalgebras_by_element_scan(moduli, mul, start_gens):
    """Every `mul`-closed subgroup containing `start_gens`, as element sets.

    Starts from the closure of `start_gens` and adjoins every element of the
    ambient box to every subring found, one element at a time.
    """
    start, gens = subring_closure(moduli, mul, start_gens)
    found = {start: gens}
    frontier = [start]
    box = list(itertools.product(*[range(d) for d in moduli]))
    while frontier:
        cur = frontier.pop()
        for v in box:
            if v in cur:
                continue
            bigger, more = subring_closure(moduli, mul, found[cur] + [v])
            if bigger not in found:
                found[bigger] = more
                frontier.append(bigger)
    return set(found)
