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

import numpy as np

from .linalg import AbelianPresentation, cols_from_vectors, kernel_gens, lattice_reduce, solve_cols

ATOM_ORDER_GUARD = 1 << 20
ELEMENT_SCAN_GUARD = 1 << 16


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


def _poly_mulmod(a, b, mod, p):
    """Product of little-endian coefficient tuples modulo (mod, p)."""
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                res[i + j] = (res[i + j] + x * y) % p
    return _poly_divmod(res, mod, p)[1]


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
        if not _is_prime(self.p):
            raise RingError(f"{self.p} is not prime")
        if self.k < 1 or self.p ** self.k > ATOM_ORDER_GUARD:
            raise TooLarge(f"atom order {self.p}^{self.k} out of range")
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

    def add(self, a, b):
        if self.kind == "zmod":
            return (a + b) % self.order
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        if self.kind == "zmod":
            return (-a) % self.order
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        if self.kind == "zmod":
            return (a * b) % self.order
        prod = _poly_mulmod(a, b, self.poly, self.p)
        return tuple(prod) + (0,) * (self.k - len(prod))

    def power(self, a, e):
        res = self.one()
        base = a
        while e:
            if e & 1:
                res = self.mul(res, base)
            base = self.mul(base, base)
            e >>= 1
        return res

    def frobenius(self, a, j):
        """a ** (p**j); the ring automorphisms of GF(p^k) are exactly these."""
        if self.kind == "zmod":
            if j != 0:
                raise RingError(f"{self.label()} admits no twist, got {j}")
            return a
        return self.power(a, self.p ** (j % self.k))

    def frobenius_cols(self, j):
        """Images of the basis 1, x, ..., x^(k-1) under Frobenius^j, built once per j."""
        cache = self._frobenius_cache
        if j not in cache:
            if self.kind == "zmod":
                cols = ((self.frobenius(1, j),),)
            else:
                cols = tuple(self.frobenius(tuple(1 if t == i else 0 for t in range(self.k)), j)
                             for i in range(self.k))
            cache[j] = cols
        return cache[j]

    @cached_property
    def _frobenius_cache(self):
        return {}

    @cached_property
    def _x_powers(self):
        """x^d for d <= 2k-2 over a GF atom, from `mul`: the structure constants,
        since x^i * x^j = x^(i+j) for the k x k basis products."""
        x = tuple(1 if t == 1 else 0 for t in range(self.k))
        powers = [self.one()]
        for _ in range(2 * self.k - 2):
            powers.append(self.mul(powers[-1], x))
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

    def __eq__(self, other):
        return isinstance(other, FiniteRing) and self.atoms == other.atoms

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
        return RingElement(self, tuple(a.zero() for a in self.atoms))

    def one(self):
        return RingElement(self, tuple(a.one() for a in self.atoms))

    def idempotent(self, support):
        return RingElement(self, tuple(a.one() if i in support else a.zero()
                                       for i, a in enumerate(self.atoms)))

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

    def basis_elements(self):
        return [self.from_vec(v) for v in self.basis_vectors()]

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

    def neg_vec(self, u):
        return tuple((-a) % m for a, m in zip(u, self.coord_moduli))

    def sub_vec(self, u, v):
        return tuple((a - b) % m for a, b, m in zip(u, v, self.coord_moduli))

    def mul_vec(self, u, v):
        out = []
        for (lo, hi), a in zip(self._spans, self.atoms):
            out.extend(a.mul_coords(u[lo:hi], v[lo:hi]))
        return tuple(out)

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
        if self.size > ELEMENT_SCAN_GUARD:
            raise TooLarge(f"ring of order {self.size} too large to enumerate")
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
    """An element of a FiniteRing; immutable and hashable."""

    __slots__ = ("ring", "comps")

    def __init__(self, ring, comps):
        self.ring = ring
        self.comps = comps

    def _check(self, other):
        if not isinstance(other, RingElement) or other.ring != self.ring:
            raise AtomMismatch("elements from different rings")

    def __add__(self, other):
        self._check(other)
        return RingElement(self.ring, tuple(a.add(x, y) for a, x, y in zip(self.ring.atoms, self.comps, other.comps)))

    def __neg__(self):
        return RingElement(self.ring, tuple(a.neg(x) for a, x in zip(self.ring.atoms, self.comps)))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            base, res, e = self, self.ring.zero(), other % self.ring.exponent
            while e:
                if e & 1:
                    res = res + base
                base = base + base
                e >>= 1
            return res
        self._check(other)
        return RingElement(self.ring, tuple(a.mul(x, y) for a, x, y in zip(self.ring.atoms, self.comps, other.comps)))

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
    Local atoms force any isomorphism of unital ideals into this shape,
    and `verify_iso_extensional` double-checks the representation.
    """

    __slots__ = ("ring", "matching", "twist", "_key")

    def __init__(self, ring, matching, twist):
        self.ring = ring
        self.matching = dict(matching)
        self.twist = {i: int(t) for i, t in twist.items()}
        dom = set(self.matching)
        im = set(self.matching.values())
        if len(im) != len(dom):
            raise RingError("matching is not a bijection")
        for i, j in self.matching.items():
            a, b = ring.atoms[i], ring.atoms[j]
            if a != b:
                raise RingError(f"atoms {i} and {j} differ; no isomorphism can match them")
            t = self.twist.get(i, 0)
            if a.kind == "zmod" and t:
                raise RingError(f"atom {i} is {a.label()}, which admits no twist (got {t})")
            self.twist[i] = t % a.k if a.kind == "gf" else 0
        for i in dom:
            self.twist.setdefault(i, 0)
        self._key = (tuple(sorted(self.matching.items())), tuple(sorted(self.twist.items())))

    @property
    def dom_support(self):
        return frozenset(self.matching)

    @property
    def im_support(self):
        return frozenset(self.matching.values())

    def __eq__(self, other):
        return isinstance(other, StructuredIso) and self.ring == other.ring and self._key == other._key

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
        return StructuredIso(self.ring, matching, twist)

    def apply(self, el):
        if not isinstance(el, RingElement) or el.ring != self.ring:
            raise AtomMismatch("element not in this ring")
        if not el.support() <= self.dom_support:
            raise OutOfDomain(f"element supported on {sorted(el.support())} not in domain {sorted(self.dom_support)}")
        comps = [a.zero() for a in self.ring.atoms]
        for i, j in self.matching.items():
            comps[j] = self.ring.atoms[i].frobenius(el.comps[i], self.twist[i])
        return RingElement(self.ring, tuple(comps))

    def _blocks(self):
        """(domain offset, image offset, Frobenius columns) per matched atom."""
        ring = self.ring
        return [(ring.atom_span(i)[0], ring.atom_span(j)[0], ring.atoms[i].frobenius_cols(self.twist[i]))
                for i, j in self.matching.items()]

    def apply_vec(self, vec):
        """(mask to domain, then apply) on coordinates, by the blocks of `matrix`."""
        out = [0] * self.ring.n_coords
        for lo_d, lo_i, cols in self._blocks():
            for c, col in enumerate(cols):
                x = int(vec[lo_d + c])
                if x:
                    for r, z in enumerate(col):
                        out[lo_i + r] += x * z
        return tuple(x % m for x, m in zip(out, self.ring.coord_moduli))

    def matrix(self):
        """Additive n x n matrix of (mask to domain, then apply)."""
        n = self.ring.n_coords
        mat = np.zeros((n, n), dtype=object)
        for lo_d, lo_i, cols in self._blocks():
            for c, col in enumerate(cols):
                for r, z in enumerate(col):
                    mat[lo_i + r, lo_d + c] = int(z)
        return mat


def ideal_order(ring, support):
    return math.prod(ring.atoms[i].order for i in support)


def verify_iso_extensional(iso, pair_limit=256):
    """Independent oracle: check bijectivity, additivity, multiplicativity, 1->1.

    Domains up to 2^16 are handled by basis-increment additivity plus
    basis-pair multiplicativity (equivalent to the all-pairs statement by
    additivity); small domains are additionally checked on all pairs.
    """
    ring = iso.ring
    dom = sorted(iso.dom_support)
    order = ideal_order(ring, iso.dom_support)
    if order > ELEMENT_SCAN_GUARD:
        raise TooLarge(f"ideal of order {order} too large for the extensional oracle")

    def dom_elements():
        parts = [list(ring.atoms[i].elements()) if i in iso.dom_support else [ring.atoms[i].zero()]
                 for i in range(len(ring.atoms))]
        for comps in itertools.product(*parts):
            yield RingElement(ring, tuple(comps))

    one_dom = ring.idempotent(iso.dom_support)
    one_im = ring.idempotent(iso.im_support)
    if iso.apply(one_dom) != one_im:
        return False
    basis = [b.mask(iso.dom_support) for b in ring.basis_elements()]
    basis = [b for b in basis if b.support()]
    images = set()
    for x in dom_elements():
        fx = iso.apply(x)
        if not fx.support() <= iso.im_support:
            return False
        images.add(fx)
        for b in basis:
            if iso.apply(x + b) != fx + iso.apply(b):
                return False
    if len(images) != order:
        return False
    for b in basis:
        fb = iso.apply(b)
        for c in basis:
            if iso.apply(b * c) != fb * iso.apply(c):
                return False
    if order <= pair_limit:
        els = list(dom_elements())
        for x in els:
            for y in els:
                if iso.apply(x * y) != iso.apply(x) * iso.apply(y):
                    return False
                if iso.apply(x + y) != iso.apply(x) + iso.apply(y):
                    return False
    return True


class Subalgebra:
    """An additive subgroup of a ring stored by a canonical Hermite basis.

    Equality of subalgebras is equality of canonical bases; membership is a
    triangular solve.  Closure under multiplication and presence of 1 are
    checked on demand, not assumed.
    """

    def __init__(self, ring, gen_vectors):
        self.ring = ring
        self.basis = ring.presentation.subgroup_canon([tuple(v) for v in gen_vectors])
        self.order = ring.presentation.order() // math.prod(
            int(self.basis[i, i]) for i in range(ring.n_coords))
        gens = []
        for j in range(ring.n_coords):
            col = tuple(int(self.basis[i, j]) for i in range(ring.n_coords))
            if any(c % m for c, m in zip(col, ring.coord_moduli)):
                gens.append(tuple(c % m for c, m in zip(col, ring.coord_moduli)))
        self.gen_vectors = tuple(gens)

    @staticmethod
    def full(ring):
        return Subalgebra(ring, ring.basis_vectors())

    @staticmethod
    def span_of_elements(ring, elements):
        return Subalgebra(ring, [e.vec() for e in elements])

    def __eq__(self, other):
        return (isinstance(other, Subalgebra) and self.ring == other.ring
                and bool((self.basis == other.basis).all()))

    def __hash__(self):
        return hash((self.ring, tuple(int(self.basis[i, j])
                                      for i in range(self.ring.n_coords)
                                      for j in range(self.ring.n_coords))))

    def __repr__(self):
        return f"Subalgebra(order={self.order})"

    def member_vec(self, vec):
        return all(x == 0 for x in lattice_reduce(self.basis, vec))

    def member(self, el):
        return self.member_vec(el.vec())

    def generators(self):
        return [self.ring.from_vec(v) for v in self.gen_vectors]

    def contains(self, other):
        return all(self.member_vec(v) for v in other.gen_vectors)

    def contains_one(self):
        return self.member(self.ring.one())

    def closed_under_mul(self):
        gens = self.gen_vectors
        return all(self.member_vec(self.ring.mul_vec(gens[i], gens[j]))
                   for i in range(len(gens)) for j in range(i, len(gens)))

    def is_subalgebra(self):
        return self.contains_one() and self.closed_under_mul()

    def element_vectors(self):
        """Every element of the subgroup, each exactly once (guarded)."""
        if self.order > ELEMENT_SCAN_GUARD:
            raise TooLarge(f"subalgebra of order {self.order} too large to enumerate")
        n = self.ring.n_coords
        ranges = [range(self.ring.coord_moduli[j] // int(self.basis[j, j])) for j in range(n)]
        for coeffs in itertools.product(*ranges):
            vec = [0] * n
            for j, c in enumerate(coeffs):
                if c:
                    for i in range(j, n):
                        vec[i] += c * int(self.basis[i, j])
            yield tuple(x % m for x, m in zip(vec, self.ring.coord_moduli))

    def elements(self):
        return (self.ring.from_vec(v) for v in self.element_vectors())

    def closure_under_mul(self):
        """Smallest multiplicatively closed additive span containing this one.

        `gens` spans `current`; the products among `gens[:checked]` are known
        to lie in it, so each round multiplies only the newly added generators,
        each unordered pair once (the ring is commutative).
        """
        ring = self.ring
        current = self
        gens = list(self.gen_vectors)
        checked = 0
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
            current = Subalgebra(ring, gens)


class TensorPresentation:
    """M (x)_R N for subalgebras R <= M, N of one ring, as an abelian group.

    Generators are the pairs of canonical generators of M and N; relations
    are the additive relation lattices of each side plus middle-linearity
    r*m (x) n = m (x) r*n over the generators of R.  Multiplication and the
    two module actions are carried as integer matrices on the generators.
    """

    def __init__(self, M, N, R, guard=1 << 20):
        ring = M.ring
        if N.ring != ring or R.ring != ring:
            raise AtomMismatch("tensor factors live in different rings")
        for big in (M, N):
            if not big.contains(R):
                raise NotSubring("R is not contained in both factors")
            if not big.is_subalgebra() or not R.is_subalgebra():
                raise NotSubring("tensor factors must be unital subalgebras")
        if M.order * N.order > guard:
            raise TooLarge("tensor factors beyond the size guard")
        self.ring, self.M, self.N, self.R = ring, M, N, R
        self.mg = list(M.gen_vectors)
        self.ng = list(N.gen_vectors)
        self.k, self.l = len(self.mg), len(self.ng)
        self._mexp = SpanExpander(M)
        self._nexp = SpanExpander(N)

        morders = [ring.vector_order(v) for v in self.mg]
        norders = [ring.vector_order(v) for v in self.ng]
        moduli = [math.gcd(morders[i], norders[j]) for i in range(self.k) for j in range(self.l)]

        rel_cols = []
        for c in _span_relation_lattice(M):
            for j in range(self.l):
                rel_cols.append(self._embed_left(c, j))
        for c in _span_relation_lattice(N):
            for i in range(self.k):
                rel_cols.append(self._embed_right(i, c))
        for r in R.gen_vectors:
            for i in range(self.k):
                left = self._mexp.expand(ring.mul_vec(r, self.mg[i]))
                for j in range(self.l):
                    right = self._nexp.expand(ring.mul_vec(r, self.ng[j]))
                    col = [0] * (self.k * self.l)
                    for a, u in enumerate(left):
                        col[self.index(a, j)] += u
                    for b, v in enumerate(right):
                        col[self.index(i, b)] -= v
                    rel_cols.append(tuple(col))
        self.pres = AbelianPresentation(moduli, cols_from_vectors(rel_cols, self.k * self.l)
                                        if rel_cols else ())

    def index(self, i, j):
        return i * self.l + j

    def _embed_left(self, coeffs, j):
        col = [0] * (self.k * self.l)
        for i, c in enumerate(coeffs):
            col[self.index(i, j)] = c
        return tuple(col)

    def _embed_right(self, i, coeffs):
        col = [0] * (self.k * self.l)
        for j, c in enumerate(coeffs):
            col[self.index(i, j)] = c
        return tuple(col)

    def order(self):
        return self.pres.order()

    def pure(self, m_el, n_el):
        """Coordinates of m (x) n for ring elements m in M, n in N."""
        u = self._mexp.expand(m_el.vec() if isinstance(m_el, RingElement) else tuple(m_el))
        v = self._nexp.expand(n_el.vec() if isinstance(n_el, RingElement) else tuple(n_el))
        col = [0] * (self.k * self.l)
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    col[self.index(i, j)] += a * b
        return tuple(col)

    def mult_map_vec(self):
        """Matrix of the multiplication map m (x) n -> m*n into ring coords."""
        cols = [self.ring.mul_vec(self.mg[i], self.ng[j])
                for i in range(self.k) for j in range(self.l)]
        return cols_from_vectors(cols, self.ring.n_coords)

    def left_mult_matrix(self, b_vec):
        """Matrix of z -> (b (x) 1) * z on tensor coordinates, b in M.

        With E the matrix of b* on M's generators this is E (x) I_l, since
        coordinate (i, j) is generator pair (mg[i], ng[j]).
        """
        E = cols_from_vectors([self._mexp.expand(self.ring.mul_vec(b_vec, m)) for m in self.mg], self.k)
        return np.kron(E, np.eye(self.l, dtype=object))

    def right_mult_matrix(self, b_vec):
        """Matrix of z -> (1 (x) b) * z: I_k (x) F, with F the matrix of b* on N's generators."""
        F = cols_from_vectors([self._nexp.expand(self.ring.mul_vec(b_vec, n)) for n in self.ng], self.l)
        return np.kron(np.eye(self.k, dtype=object), F)

    def eq(self, z, w):
        return self.pres.eq(z, w)

    def is_zero(self, z):
        return self.pres.is_zero(z)


class SpanExpander:
    """Expand ring vectors as integer combinations of a subalgebra's generators."""

    def __init__(self, sub):
        self.sub = sub
        self.ring = sub.ring
        self._cache = {}
        self._mat = cols_from_vectors(list(sub.gen_vectors), sub.ring.n_coords)

    def expand(self, vec):
        vec = tuple(int(x) % m for x, m in zip(vec, self.ring.coord_moduli))
        hit = self._cache.get(vec)
        if hit is not None:
            return hit
        if not self.sub.gen_vectors:
            if any(vec):
                raise NotSubring(f"vector {vec} is outside the span")
            return ()
        in_moduli = [self.ring.vector_order(g) for g in self.sub.gen_vectors]
        sol = solve_cols(self._mat, self.ring.presentation.lattice, vec, in_moduli)
        if sol is None:
            raise NotSubring(f"vector {vec} is outside the span")
        self._cache[vec] = sol
        return sol


def _span_relation_lattice(sub):
    """Generators of {c : sum c_i * g_i = 0 in the ring} for a subalgebra."""
    ring = sub.ring
    if not sub.gen_vectors:
        return []
    mat = cols_from_vectors(list(sub.gen_vectors), ring.n_coords)
    in_moduli = [ring.vector_order(g) for g in sub.gen_vectors]
    gens = kernel_gens(mat, ring.presentation.lattice, in_moduli)
    # declared generator orders are relations too
    for i, d in enumerate(in_moduli):
        gens.append(tuple(d if t == i else 0 for t in range(len(in_moduli))))
    return gens


def tensor_over_subring(M, N, R, guard=1 << 14):
    """Presentation of M (x)_R N with its bilinear structure maps."""
    return TensorPresentation(M, N, R, guard=guard)
