"""Finite commutative rings as ordered products of local atoms.

An atom is either Z/p^k or GF(p^k); every finite commutative ring is a
product of local rings, so this representation is lossless up to
isomorphism.  It also makes the objects the Galois machinery needs finitely
structured: central idempotents are exactly the support indicators, unital
ideals are atom subsets, and ring isomorphisms between unital ideals are
atom matchings with a per-atom automorphism twist (trivial on Z/p^k,
a Frobenius power on GF(p^k)).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .budget import spend
from .linalg import (AbelianPresentation, Matrix, cols_from_vectors, kron_difference, lattice_det,
                     lattice_member)

ATOM_ORDER_GUARD = 1 << 20


class RingError(Exception):
    pass


class AtomMismatch(RingError):
    pass


class OutOfDomain(RingError):
    pass


class TooLarge(RingError):
    pass


class NotSubring(RingError):
    pass


def _is_prime(n):
    if n < 2:
        return False
    for d in range(2, int(n ** 0.5) + 1):
        if n % d == 0:
            return False
    return True


def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_divmod(a, b, p):
    a = list(a)
    b = _poly_trim(b)
    binv = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = (a[i + len(b) - 1] * binv) % p
        if c:
            q[i] = c
            for j, y in enumerate(b):
                a[i + j] = (a[i + j] - c * y) % p
    return _poly_trim(q), _poly_trim(a)


def _poly_irreducible(poly, p):
    """Trial division by every monic polynomial of degree <= deg/2."""
    k = len(poly) - 1
    if k < 1 or poly[-1] % p != 1:
        return False
    for deg in range(1, k // 2 + 1):
        for tail in itertools.product(range(p), repeat=deg):
            divisor = tuple(tail) + (1,)
            if not _poly_divmod(poly, divisor, p)[1]:
                return False
    return True


DEFAULT_GF_POLYS = {
    # small conway-free defaults; any irreducible works, verified on construction
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 2, 0, 1),
    (5, 2): (2, 0, 1),
    (7, 2): (1, 0, 1),
}


@dataclass(frozen=True)
class Atom:
    """One local factor: Z mod p^k, or GF(p^k) with an explicit modulus poly."""

    kind: str  # "zmod" | "gf"
    p: int
    k: int
    poly: tuple = ()

    def __post_init__(self):
        if self.kind not in ("zmod", "gf"):
            raise RingError(f"unknown atom kind {self.kind!r}")
        # k is bounded before p ** k is computed, and p before the primality test
        if not 0 < self.k <= ATOM_ORDER_GUARD.bit_length() or self.p ** self.k > ATOM_ORDER_GUARD:
            raise TooLarge(f"atom order {self.p}^{self.k} out of range")
        if not _is_prime(self.p):
            raise RingError(f"{self.p} is not prime")
        if self.kind == "gf":
            if len(self.poly) != self.k + 1 or not _poly_irreducible(self.poly, self.p):
                raise RingError(f"poly {self.poly} is not monic irreducible of degree {self.k} over F_{self.p}")

    @staticmethod
    def zmod(p, k=1):
        return Atom("zmod", p, k)

    @staticmethod
    def gf(p, k, poly=None):
        if poly is None:
            poly = DEFAULT_GF_POLYS.get((p, k))
            if poly is None:
                raise RingError(f"no default modulus for GF({p}^{k}); pass one explicitly")
        return Atom("gf", p, k, tuple(c % p for c in poly))

    @property
    def order(self):
        return self.p ** self.k

    @property
    def coords(self):
        """Number of additive coordinates (cyclic summands)."""
        return 1 if self.kind == "zmod" else self.k

    @property
    def coord_moduli(self):
        return (self.p ** self.k,) if self.kind == "zmod" else (self.p,) * self.k

    def zero(self):
        return 0 if self.kind == "zmod" else (0,) * self.k

    def one(self):
        return 1 if self.kind == "zmod" else ((1,) + (0,) * (self.k - 1))

    def frobenius_cols(self, j):
        """Images of the basis 1, x, ..., x^(k-1) under Frobenius^j, built once per j:
        the powers of y = x^(p^j), with y found by square-and-multiply."""
        cache = self._frobenius_cache
        if j not in cache:
            if self.kind == "zmod":
                if j:
                    raise RingError(f"{self.label()} admits no twist, got {j}")
                cols = [(1,)]
            else:
                x = tuple(1 if t == 1 else 0 for t in range(self.k))
                y, e = self.one(), self.p ** (j % self.k)
                while e:
                    if e & 1:
                        y = self.mul_coords(y, x)
                    x = self.mul_coords(x, x)
                    e >>= 1
                cols = [self.one()]
                for _ in range(self.k - 1):
                    cols.append(tuple(self.mul_coords(cols[-1], y)))
            cache[j] = tuple(cols)
        return cache[j]

    @cached_property
    def _frobenius_cache(self):
        return {}

    @cached_property
    def _x_powers(self):
        """x^d for d <= 2k-2 over a GF atom, from the monic modulus: x^k is
        -(poly_0 + ... + poly_(k-1) x^(k-1)), and each further power shifts
        the one before up a degree and rewrites its x^k term."""
        k, p = self.k, self.p
        powers = [tuple(1 if t == d else 0 for t in range(k)) for d in range(k)]
        top = tuple(-c % p for c in self.poly[:k])
        for _ in range(k - 1):
            last = powers[-1]
            powers.append(tuple((s + last[-1] * c) % p for s, c in zip((0,) + last[:-1], top)))
        return tuple(powers)

    def mul_coords(self, u, v):
        """Product of two coordinate chunks of this atom, as a list of ints."""
        if self.kind == "zmod":
            return [int(u[0]) * int(v[0]) % self.order]
        k, p = self.k, self.p
        conv = [0] * (2 * k - 1)
        for i, x in enumerate(u):
            if x:
                x = int(x)
                for j, y in enumerate(v):
                    if y:
                        conv[i + j] += x * int(y)
        out = conv[:k]
        for d in range(k, 2 * k - 1):
            c = conv[d]
            if c:
                for t, z in enumerate(self._x_powers[d]):
                    if z:
                        out[t] += c * z
        return [c % p for c in out]

    def elements(self):
        if self.kind == "zmod":
            return range(self.order)
        return itertools.product(range(self.p), repeat=self.k)

    def label(self):
        if self.kind == "zmod":
            return f"Z/{self.order}"
        return f"GF({self.order})"


class FiniteRing:
    """An ordered product of atoms; elements are per-atom component tuples."""

    def __init__(self, atoms):
        atoms = tuple(atoms)
        if not atoms:
            raise RingError("a ring needs at least one atom")
        self.atoms = atoms
        self.size = math.prod(a.order for a in atoms)
        self.coord_moduli = tuple(m for a in atoms for m in a.coord_moduli)
        self.n_coords = len(self.coord_moduli)
        self.presentation = AbelianPresentation(self.coord_moduli)
        self._spans = []
        pos = 0
        for a in atoms:
            self._spans.append((pos, pos + a.coords))
            pos += a.coords
        self.exponent = math.lcm(*self.coord_moduli)
        self._products = {}  # unordered pair of coordinate tuples -> their product
        self._idempotents = {}  # atom set -> its indicator vector, built on first use
        self.zero_vec = (0,) * self.n_coords
        self.one_vec = tuple(x for a in atoms for x in (1,) + (0,) * (a.coords - 1))

    def __eq__(self, other):
        return self is other or isinstance(other, FiniteRing) and self.atoms == other.atoms

    def __hash__(self):
        return hash(self.atoms)

    def __repr__(self):
        return "FiniteRing(" + " x ".join(a.label() for a in self.atoms) + ")"

    # -- elements ---------------------------------------------------------

    def element(self, comps):
        comps = tuple(comps)
        if len(comps) != len(self.atoms):
            raise AtomMismatch("component count mismatch")
        fixed = []
        for a, c in zip(self.atoms, comps):
            if a.kind == "zmod":
                fixed.append(int(c) % a.order)
            else:
                c = tuple(int(x) % a.p for x in c)
                if len(c) != a.k:
                    raise AtomMismatch("GF component length mismatch")
                fixed.append(c)
        return RingElement(self, tuple(fixed))

    def zero(self):
        return self.from_vec(self.zero_vec)

    def one(self):
        return self.from_vec(self.one_vec)

    def idempotent(self, support):
        return self.from_vec(self.idempotent_vec(support))

    def idempotent_vec(self, support):
        """The indicator of a set of atoms as a coordinate vector, kept per set."""
        support = frozenset(support)
        if support not in self._idempotents:
            firsts = {self._spans[i][0] for i in support}
            self._idempotents[support] = tuple(int(c in firsts) for c in range(self.n_coords))
        return self._idempotents[support]

    def from_vec(self, vec):
        comps = []
        for (lo, hi), a in zip(self._spans, self.atoms):
            chunk = [int(v) % m for v, m in zip(vec[lo:hi], a.coord_moduli)]
            comps.append(chunk[0] if a.kind == "zmod" else tuple(chunk))
        return RingElement(self, tuple(comps))

    def to_vec(self, el):
        vec = []
        for a, c in zip(self.atoms, el.comps):
            vec.extend([c] if a.kind == "zmod" else list(c))
        return tuple(vec)

    def basis_vectors(self):
        """Atom-pure additive generators e_0, ..., e_{n-1} as coordinate vectors."""
        return [tuple(1 if i == j else 0 for j in range(self.n_coords)) for i in range(self.n_coords)]

    def coord_atom(self, i):
        """Atom index owning flat coordinate i."""
        for idx, (lo, hi) in enumerate(self._spans):
            if lo <= i < hi:
                return idx
        raise IndexError(i)

    def atom_span(self, idx):
        return self._spans[idx]

    # -- vector arithmetic (used by the solvers, avoids element objects) ---

    def add_vec(self, u, v):
        return tuple((a + b) % m for a, b, m in zip(u, v, self.coord_moduli))

    def sub_vec(self, u, v):
        return tuple((a - b) % m for a, b, m in zip(u, v, self.coord_moduli))

    def mul_vec(self, u, v):
        """Product of coordinate vectors, atom by atom; an atom where either
        factor is zero gets zeros without a product, but every atom is charged.

        Each unordered pair is multiplied once per ring and kept in its
        product table; a repeat is read from there and charged all the same,
        so the table holds at most (budget / atoms) entries.
        """
        spend("ring_products", len(self.atoms))
        u, v = tuple(u), tuple(v)
        key = (u, v) if u <= v else (v, u)
        out = self._products.get(key)
        if out is None:
            out = []
            for (lo, hi), a in zip(self._spans, self.atoms):
                x, y = u[lo:hi], v[lo:hi]
                if any(x) and any(y):
                    out.extend(a.mul_coords(x, y))
                else:
                    out.extend([0] * (hi - lo))
            out = self._products[key] = tuple(out)
        return out

    def atom_mask(self, vec):
        """The atoms on which a coordinate vector is nonzero, as a bit mask."""
        return sum(1 << a for a, (lo, hi) in enumerate(self._spans) if any(vec[lo:hi]))

    def is_unit_vec(self, vec):
        """The element is a unit: on every atom a GF coordinate block is
        nonzero and a Z/p^k coordinate is prime to p."""
        return all(vec[lo] % a.p if a.kind == "zmod" else any(vec[lo:hi])
                   for (lo, hi), a in zip(self._spans, self.atoms))

    def vector_order(self, vec):
        """Additive order of a coordinate vector."""
        o = 1
        for x, m in zip(vec, self.coord_moduli):
            o = math.lcm(o, m // math.gcd(int(x), m))
        return o

    def mask_vec(self, u, support):
        out = [0] * self.n_coords
        for idx in support:
            lo, hi = self._spans[idx]
            out[lo:hi] = u[lo:hi]
        return tuple(out)

    def mult_matrix(self, vec):
        """Additive matrix of multiplication by the element with coords `vec`."""
        cols = [self.mul_vec(vec, b) for b in self.basis_vectors()]
        return cols_from_vectors(cols, self.n_coords)

    # -- enumeration ------------------------------------------------------

    def elements(self):
        spend("elements", self.size)
        for comps in itertools.product(*[a.elements() for a in self.atoms]):
            yield RingElement(self, tuple(comps))

    def all_supports(self):
        idx = range(len(self.atoms))
        return [frozenset(s) for r in range(len(self.atoms) + 1) for s in itertools.combinations(idx, r)]

    def enumerate_central_idempotents(self):
        """All central idempotents: exactly the support indicators."""
        return [self.idempotent(s) for s in sorted(self.all_supports(), key=sorted_support_key)]


def sorted_support_key(s):
    return (len(s), tuple(sorted(s)))


class RingElement:
    """An element of a FiniteRing; immutable and hashable.

    The printed and API view of a coordinate vector: its arithmetic is the
    ring's coordinate kernel (`add_vec`, `mul_vec`).
    """

    __slots__ = ("ring", "comps")

    def __init__(self, ring, comps):
        self.ring = ring
        self.comps = comps

    def _check(self, other):
        if not isinstance(other, RingElement) or other.ring != self.ring:
            raise AtomMismatch("elements from different rings")

    def __add__(self, other):
        self._check(other)
        return self.ring.from_vec(self.ring.add_vec(self.vec(), other.vec()))

    def __neg__(self):
        return self.ring.from_vec(tuple(-x for x in self.vec()))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.ring.from_vec(tuple(other * x for x in self.vec()))
        self._check(other)
        return self.ring.from_vec(self.ring.mul_vec(self.vec(), other.vec()))

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, RingElement) and self.ring == other.ring and self.comps == other.comps

    def __hash__(self):
        return hash(self.comps)

    def __repr__(self):
        return f"<{', '.join(map(str, self.comps))}>"

    def support(self):
        return frozenset(i for i, (a, c) in enumerate(zip(self.ring.atoms, self.comps)) if c != a.zero())

    def is_idempotent(self):
        return self * self == self

    def vec(self):
        return self.ring.to_vec(self)

    def mask(self, support):
        return RingElement(self.ring, tuple(c if i in support else a.zero()
                                            for i, (a, c) in enumerate(zip(self.ring.atoms, self.comps))))


class StructuredIso:
    """A ring isomorphism between unital ideals, stored as atom data.

    `matching` maps each domain atom index to its image atom index (the
    atoms must carry identical (kind, p, k, poly)); `twist` gives the
    Frobenius power applied on each domain atom (always 0 on zmod atoms).
    Local atoms force any isomorphism of unital ideals into this shape.
    The constructor checks this; `trusted` builds an iso derived from valid
    ones (a composite, inverse, join or block restriction) without checks.
    """

    __slots__ = ("ring", "matching", "twist", "_key", "_plan")

    def __init__(self, ring, matching, twist):
        matching, twist = dict(matching), {i: int(t) for i, t in twist.items()}
        if len(set(matching.values())) != len(matching):
            raise RingError("matching is not a bijection")
        for i, j in matching.items():
            a, b = ring.atoms[i], ring.atoms[j]
            if a != b:
                raise RingError(f"atoms {i} and {j} differ; no isomorphism can match them")
            t = twist.get(i, 0)
            if a.kind == "zmod" and t:
                raise RingError(f"atom {i} is {a.label()}, which admits no twist (got {t})")
            twist[i] = t % a.k if a.kind == "gf" else 0
        self._fill(ring, matching, twist)

    def _fill(self, ring, matching, twist):
        self.ring, self.matching, self.twist, self._plan = ring, matching, twist, None
        self._key = (tuple(sorted(matching.items())), tuple(sorted(twist.items())))
        return self

    @staticmethod
    def trusted(ring, matching, twist):
        """The iso of valid data: dicts matching equal atoms bijectively and
        giving each domain atom its twist, reduced mod k (0 on zmod atoms)."""
        return StructuredIso.__new__(StructuredIso)._fill(ring, matching, twist)

    @property
    def dom_support(self):
        return frozenset(self.matching)

    @property
    def im_support(self):
        return frozenset(self.matching.values())

    def __eq__(self, other):
        return (isinstance(other, StructuredIso) and self._key == other._key
                and (self.ring is other.ring or self.ring == other.ring))

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        if not self.matching:
            return "Iso(0)"
        parts = [f"{i}->{j}^{self.twist[i]}" for i, j in sorted(self.matching.items())]
        return "Iso(" + ", ".join(parts) + ")"

    @staticmethod
    def identity_on(ring, support):
        return StructuredIso(ring, {i: i for i in support}, {})

    @staticmethod
    def empty(ring):
        return StructuredIso(ring, {}, {})

    def is_identity_map(self):
        return all(i == j for i, j in self.matching.items()) and not any(self.twist.values())

    def inverse(self):
        matching = {j: i for i, j in self.matching.items()}
        twist = {}
        for i, j in self.matching.items():
            a = self.ring.atoms[i]
            twist[j] = (-self.twist[i]) % a.k if a.kind == "gf" else 0
        return StructuredIso.trusted(self.ring, matching, twist)

    def apply(self, el):
        if not isinstance(el, RingElement) or el.ring != self.ring:
            raise AtomMismatch("element not in this ring")
        if not el.support() <= self.dom_support:
            raise OutOfDomain(f"element supported on {sorted(el.support())} not in domain {sorted(self.dom_support)}")
        return self.ring.from_vec(self.apply_vec(el.vec()))

    def application_plan(self):
        """((domain coordinate, ((image coordinate, coefficient), ...)), ...):
        the nonzero entries of the Frobenius blocks, built on first use."""
        if self._plan is None:
            ring = self.ring
            plan = []
            for i, j in self.matching.items():
                lo_d, lo_i = ring.atom_span(i)[0], ring.atom_span(j)[0]
                for c, col in enumerate(ring.atoms[i].frobenius_cols(self.twist[i])):
                    plan.append((lo_d + c, tuple((lo_i + r, int(z)) for r, z in enumerate(col) if z)))
            self._plan = tuple(plan)
        return self._plan

    def apply_vec(self, vec):
        """(mask to domain, then apply) on coordinates, by the plan."""
        out = [0] * self.ring.n_coords
        for c, targets in self.application_plan():
            x = vec[c]
            if x:
                for r, z in targets:
                    out[r] += x * z
        return tuple(x % m for x, m in zip(out, self.ring.coord_moduli))

    def matrix(self):
        """Additive n x n matrix of (mask to domain, then apply)."""
        cols = [{} for _ in range(self.ring.n_coords)]
        for c, targets in self.application_plan():
            cols[c] = dict(targets)
        return Matrix(self.ring.n_coords, cols)


class Subalgebra:
    """An additive subgroup of a ring stored by a canonical Hermite basis.

    Equality of subalgebras is equality of canonical bases; membership is a
    triangular solve.  Closure under multiplication and presence of 1 are
    checked on demand, not assumed, and remembered: a subalgebra is never
    changed after construction.  `known_base` is one checked to lie in it.
    """

    known_base = None

    def __init__(self, ring, gen_vectors):
        self._set_basis(ring, ring.presentation.subgroup_canon([tuple(v) for v in gen_vectors]))

    def _set_basis(self, ring, basis):
        self.ring = ring
        self.basis = basis
        self.order = ring.presentation.order() // lattice_det(basis)
        # canonical columns are reduced, and one whose pivot is the modulus is
        # d_j e_j, zero in the ring; the others are the generators
        self.gen_vectors = tuple(basis.column(j) for j, (c, d) in
                                 enumerate(zip(basis.cols, ring.coord_moduli)) if c[j] != d)

    @staticmethod
    def with_basis(ring, basis):
        """The subgroup whose canonical basis is `basis`, taken as given."""
        sub = Subalgebra.__new__(Subalgebra)
        sub._set_basis(ring, basis)
        return sub

    @staticmethod
    def full(ring):
        """The whole ring, a unital subalgebra by construction: its check takes no products."""
        sub = Subalgebra(ring, ring.basis_vectors())
        sub._is_subalgebra = True
        return sub

    @staticmethod
    def span_of_elements(ring, elements):
        return Subalgebra(ring, [e.vec() for e in elements])

    def __eq__(self, other):
        return (isinstance(other, Subalgebra) and self.ring == other.ring
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ring, tuple(tuple(sorted(c.items())) for c in self.basis.cols)))

    def __repr__(self):
        return f"Subalgebra(order={self.order})"

    def member_vec(self, vec):
        return lattice_member(self.basis, vec)

    def member(self, el):
        return self.member_vec(el.vec())

    def generators(self):
        return [self.ring.from_vec(v) for v in self.gen_vectors]

    def contains(self, other):
        return all(self.member_vec(v) for v in other.gen_vectors)

    def contains_one(self):
        return self.member_vec(self.ring.one_vec)

    def closed_under_mul(self):
        """Every product of two generators lies in the span; a pair on
        disjoint atoms multiplies to 0, so only pairs whose atoms meet count."""
        gens = self.gen_vectors
        masks = [self.ring.atom_mask(g) for g in gens]
        return all(self.member_vec(self.ring.mul_vec(gens[i], gens[j]))
                   for i in range(len(gens)) for j in range(i, len(gens)) if masks[i] & masks[j])

    def is_subalgebra(self):
        return self._is_subalgebra

    @cached_property
    def _is_subalgebra(self):
        return self.contains_one() and self.closed_under_mul()

    def element_vectors(self):
        """Every element of the subgroup, each exactly once."""
        spend("elements", self.order)
        cols = self.basis.cols
        ranges = [range(m // c[j]) for j, (m, c) in enumerate(zip(self.ring.coord_moduli, cols))]
        for coeffs in itertools.product(*ranges):
            yield tuple(x % m for x, m in zip(self.basis.apply(coeffs), self.ring.coord_moduli))

    def elements(self):
        return (self.ring.from_vec(v) for v in self.element_vectors())

    def algebra_generators(self, base):
        """Generators, chosen greedily from `gen_vectors`, of this subalgebra as a `base`-algebra.

        A generator already in the `base`-algebra generated by the earlier
        choices is skipped; otherwise it is chosen and adjoined to that
        algebra.  `base` must be a unital subalgebra inside this one.
        """
        chosen = []
        current = base
        for g in self.gen_vectors:
            if not current.member_vec(g):
                chosen.append(g)
                current = current.adjoin(g)
        return chosen

    def closure_under_mul(self):
        """Smallest multiplicatively closed additive span containing this one."""
        return _close_under_mul(self, list(self.gen_vectors), 0)

    def extended(self, vectors):
        """The additive span of this one and `vectors`, inserted into its canonical basis."""
        return Subalgebra.with_basis(self.ring, self.ring.presentation.subgroup_canon(vectors, self.basis))

    def adjoin(self, vec):
        """Smallest multiplicatively closed additive span containing this one,
        which must be closed under multiplication, and `vec`: the products
        among this span's generators lie in it, so only `vec` and what it
        brings in are multiplied."""
        gens = list(self.gen_vectors) + [tuple(vec)]
        return _close_under_mul(self.extended(gens[-1:]), gens, len(gens) - 1)


def _close_under_mul(current, gens, checked):
    """Close `current`, spanned by `gens`, under multiplication.

    The products among `gens[:checked]` are known to lie in `current`, so
    each round multiplies only the newly added generators, each unordered
    pair once (the ring is commutative), and inserts only the products it
    finds outside the span.
    """
    ring = current.ring
    while True:
        extra = {}
        for j in range(checked, len(gens)):
            for i in range(j + 1):
                w = ring.mul_vec(gens[i], gens[j])
                if w not in extra and not current.member_vec(w):
                    extra[w] = None
        if not extra:
            return current
        checked = len(gens)
        gens.extend(extra)
        current = current.extended(extra)


class Block:
    """The ideal A e_O of a ring A for a set O of its atoms, as a ring of its own.

    e_O is a central idempotent, so for a partition of the atoms A is the
    direct sum of its blocks, and a system that commutes with each e_O
    splits into one system per block.  The block ring's coordinates are A's
    coordinates on O's atoms, in A's order (`coords`), so the unknowns of a
    block system keep their global relative order.  The block of all the
    atoms is A itself, with every map below the identity.
    """

    def __init__(self, ring, atoms):
        self.whole = ring
        self.atoms = tuple(sorted(atoms))
        self.ring = (ring if len(self.atoms) == len(ring.atoms)
                     else FiniteRing([ring.atoms[a] for a in self.atoms]))
        self.coords = tuple(c for a in self.atoms for c in range(*ring.atom_span(a)))
        self._local = {a: i for i, a in enumerate(self.atoms)}
        self._isos = {}

    def indicator(self):
        """e_O as a coordinate vector of A."""
        return self.whole.idempotent_vec(self.atoms)

    def restrict(self, vec):
        """The block-ring coordinates of vec * e_O."""
        return tuple(vec[c] for c in self.coords)

    def extend(self, vec):
        """The vector of A that is `vec` on the block and zero elsewhere."""
        out = [0] * self.whole.n_coords
        for c, x in zip(self.coords, vec):
            out[c] = x
        return tuple(out)

    def iso(self, iso):
        """`iso` on the block ring, restricted once per iso; its matching must
        keep the block's atoms among themselves."""
        if self.ring is self.whole:
            return iso
        got = self._isos.get(iso)
        if got is None:
            local = self._local
            if any((i in local) != (j in local) for i, j in iso.matching.items()):
                raise RingError("the iso moves atoms into or out of the block")
            got = self._isos[iso] = StructuredIso.trusted(
                self.ring, {local[i]: local[j] for i, j in iso.matching.items() if i in local},
                {local[i]: t for i, t in iso.twist.items() if i in local})
        return got

    def basis(self, sub):
        """The canonical basis of sub * e_O on the block ring; sub must contain e_O.

        sub is then the direct sum of its blocks, so its canonical basis is
        theirs put in place (`linalg.scatter_lattice`): the columns at the
        block's coordinates, read back, are the block's canonical basis.
        """
        if self.ring is self.whole:
            return sub.basis
        pos = {c: r for r, c in enumerate(self.coords)}
        cols = []
        for c in self.coords:
            col = sub.basis.cols[c]
            if not col.keys() <= pos.keys():
                raise NotSubring("the subalgebra does not split along the block")
            cols.append({pos[r]: v for r, v in col.items()})
        return Matrix(len(self.coords), cols)

    def subalgebra(self, sub):
        """sub * e_O as a subalgebra of the block ring, on `basis`."""
        if self.ring is self.whole:
            return sub
        part = Subalgebra.with_basis(self.ring, self.basis(sub))
        if sub.is_subalgebra():
            part._is_subalgebra = True  # e_O is its one
        return part


class TensorPresentation:
    """M (x)_R N for subalgebras R <= M, N of one ring, as an abelian group.

    Generators are the pairs of canonical generators of M and N; relations
    are the additive relation lattices of each side plus middle-linearity
    r*m (x) n = m (x) r*n over the generators of R.  Multiplication and the
    two module actions are carried as integer matrices on the generators.
    """

    def __init__(self, M, N, R):
        self.check_factors(M, N, R)
        ring = self.ring = M.ring
        self.M, self.N, self.R = M, N, R
        self.mg, self.ng = list(M.gen_vectors), list(N.gen_vectors)
        self.k, self.l = len(self.mg), len(self.ng)
        self._mexp = SpanExpander(M)
        self._nexp = self._mexp if N is M else SpanExpander(N)

        morders = [ring.vector_order(v) for v in self.mg]
        norders = [ring.vector_order(v) for v in self.ng]
        moduli = [math.gcd(morders[i], norders[j]) for i in range(self.k) for j in range(self.l)]

        m_relations = _span_relation_lattice(M)
        rel_cols = []
        for c in m_relations:
            for j in range(self.l):
                rel_cols.append({self.index(i, j): x for i, x in enumerate(c) if x})
        for c in (m_relations if N is M else _span_relation_lattice(N)):
            for i in range(self.k):
                rel_cols.append({self.index(i, j): x for j, x in enumerate(c) if x})
        for r in R.gen_vectors:
            rel_cols += [c for c in self.mult_difference(r).cols if c]
        self.pres = AbelianPresentation(moduli, Matrix(self.k * self.l, rel_cols))

    @staticmethod
    def check_factors(M, N, R):
        """Raise unless M, N and R are unital subalgebras of one ring with R in M and N."""
        ring = M.ring
        if N.ring != ring or R.ring != ring:
            raise AtomMismatch("tensor factors live in different rings")
        checked = []  # factors known to be unital subalgebras; `in` matches by identity first
        for big in (M, N):
            if big in checked:
                continue
            if not big.contains(R):
                raise NotSubring("R is not contained in both factors")
            for sub in (big, R):
                if sub not in checked:
                    if not sub.is_subalgebra():
                        raise NotSubring("tensor factors must be unital subalgebras")
                    checked.append(sub)

    def index(self, i, j):
        return i * self.l + j

    def order(self):
        return self.pres.order()

    def pure(self, m_el, n_el):
        """Coordinates of m (x) n for ring elements m in M, n in N."""
        col = [0] * (self.k * self.l)
        for p, x in self.pure_terms(m_el, n_el):
            col[p] += x
        return tuple(col)

    def pure_terms(self, m_el, n_el):
        """The (coordinate, coefficient) terms of m (x) n: the products of the
        two expansions."""
        u = self._mexp.expand(m_el.vec() if isinstance(m_el, RingElement) else tuple(m_el))
        v = self._nexp.expand(n_el.vec() if isinstance(n_el, RingElement) else tuple(n_el))
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    if b:
                        yield self.index(i, j), a * b

    def mult_map_vec(self):
        """Matrix of the multiplication map m (x) n -> m*n into ring coords."""
        return self._mult_map

    @cached_property
    def _mult_map(self):
        """Built once, each unordered generator pair multiplied once (the ring
        is commutative)."""
        products = {}
        cols = []
        for u in self.mg:
            for v in self.ng:
                key = (u, v) if u <= v else (v, u)
                if key not in products:
                    products[key] = self.ring.mul_vec(u, v)
                cols.append(products[key])
        return cols_from_vectors(cols, self.ring.n_coords)

    def left_factor(self, b_vec):
        """k x k matrix E of m -> b*m on M's generators: column i expands b*mg[i]."""
        return self._mexp.mult_matrix(b_vec)

    def right_factor(self, b_vec):
        """l x l matrix F of n -> b*n on N's generators: column j expands b*ng[j].

        When N is M the two sides share their matrices, so F is E."""
        return self._nexp.mult_matrix(b_vec)

    def mult_difference(self, b_vec):
        """Matrix of z -> ((b (x) 1) - (1 (x) b)) * z on tensor coordinates, b in M and in N.

        This is E (x) I_l - I_k (x) F with E, F = `left_factor(b)`, `right_factor(b)`:
        coordinate (i, j) is generator pair (mg[i], ng[j]).
        """
        return kron_difference(self.left_factor(b_vec), self.right_factor(b_vec))

    def eq(self, z, w):
        return self.pres.eq(z, w)

    def is_zero(self, z):
        return self.pres.is_zero(z)


class SpanExpander:
    """Expand ring vectors as integer combinations of a subalgebra's generators.

    A subalgebra's generators are the columns j of its canonical
    lower-triangular basis with a nonzero residue; every other column is
    d_j e_j, zero in the ring.  So the walk of `lattice_reduce` down that
    basis expands a member, and its quotient at a generator's column is that
    generator's coefficient (reduced modulo the generator's order).  Another
    expansion of the same vector differs by a relation of the generators.
    """

    def __init__(self, sub):
        self.sub = sub
        ring = self.ring = sub.ring
        self._cache = {}
        self._mult_matrices = {}
        # (pivot row, pivot, entries below it, generator order or 0) per basis
        # column; a column is a generator when its pivot is not the modulus
        m = ring.coord_moduli
        self._walk = [(j, col[j], sorted((i, v) for i, v in col.items() if i > j),
                       math.lcm(*(m[i] // math.gcd(x, m[i]) for i, x in col.items()))
                       if col[j] != m[j] else 0)
                      for j, col in enumerate(sub.basis.cols)]
        self._orders = [step[3] for step in self._walk if step[3]]

    def mult_matrix(self, b_vec):
        """Matrix of m -> b*m on the generators, column j expanding b times
        generator j; built once per b."""
        b_vec = tuple(b_vec)
        mat = self._mult_matrices.get(b_vec)
        if mat is None:
            gens = self.sub.gen_vectors
            mat = cols_from_vectors([self.expand(self.ring.mul_vec(b_vec, g)) for g in gens], len(gens))
            self._mult_matrices[b_vec] = mat
        return mat

    def expand(self, vec):
        vec = tuple(int(x) % m for x, m in zip(vec, self.ring.coord_moduli))
        hit = self._cache.get(vec)
        if hit is not None:
            return hit
        coeffs = self.quotients(list(vec))
        if coeffs is None:
            raise NotSubring(f"vector {vec} is outside the span")
        self._cache[vec] = tuple(q % d for q, d in zip(coeffs, self._orders))
        return self._cache[vec]

    def quotients(self, w):
        """H^-1 w on the generator columns, for the canonical basis H and an
        integer vector w (changed in place), or None off the lattice."""
        coeffs = []
        for j, pivot, below, order in self._walk:
            q, rem = divmod(w[j], pivot)
            if rem:
                return None
            if q:
                for i, v in below:
                    w[i] -= q * v
            if order:
                coeffs.append(q)
        return coeffs


def _span_relation_lattice(sub):
    """Generators, modulo the generators' orders, of {c : sum c_i * g_i = 0
    in the ring}: H^-1(d_r e_r) on the generator columns of the canonical
    basis H, as H y = sum c_i g_i lies in diag(d) exactly when y is a
    combination of these (a column d_r e_r of H gives e_r, no generator)."""
    expander = SpanExpander(sub)
    moduli = sub.ring.coord_moduli
    relations = []
    for r, (_, _, _, order) in enumerate(expander._walk):
        if order:
            w = [0] * len(moduli)
            w[r] = moduli[r]
            c = tuple(q % d for q, d in zip(expander.quotients(w), expander._orders))
            if any(c):
                relations.append(c)
    return relations
