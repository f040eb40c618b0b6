"""Finite commutative rings as ordered products of local atoms.

An atom is either Z/p^k or GF(p^k); every finite commutative ring is a
product of local rings, so this representation is lossless up to
isomorphism.  Both kinds are Galois rings and are held alike: r coordinates
modulo one integer, multiplied as polynomials modulo the atom's `poly`.  An
element is the vector of all atoms' coordinates, printed per atom.  The
product form makes the objects the Galois machinery needs finitely
structured: central idempotents are exactly the support indicators, unital
ideals are atom subsets, and ring isomorphisms between unital ideals are
atom matchings with a per-atom automorphism twist (trivial on Z/p^k,
a Frobenius power on GF(p^k)).
"""

from __future__ import annotations

import itertools
import math
import operator
from types import MappingProxyType

from .budget import spend
from .linalg import AbelianPresentation, Matrix, lattice_det, lattice_member
from .semigroups import remembered

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


class Atom:
    """One local factor: Z mod p^k, or GF(p^k) with an explicit modulus poly.

    Both are Galois rings, GR(p^k, 1) and GR(p, k), and are held alike:
    `coords` coordinates, each modulo `modulus`, multiplied as polynomials
    modulo `poly` (p^k and one coordinate on Z/p^k; p and k coordinates on
    GF(p^k)).  `kind` names the format an atom is read and printed in; no
    arithmetic reads it.

    A value: equal and hashed by (kind, p, k, poly), checked on construction.
    """

    def __init__(self, kind, p, k, poly=()):
        self.kind = kind  # "zmod" | "gf"
        self.p, self.k, self.poly = p, k, poly
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
            self.coords, self.modulus = k, p
        else:
            self.coords, self.modulus = 1, p ** k
        self.coord_moduli = (self.modulus,) * self.coords
        # x^d for d <= 2r-2, r = `coords`, from the monic modulus: x^r is
        # -(poly_0 + ... + poly_(r-1) x^(r-1)), and each further power shifts
        # the one before up a degree and rewrites its x^r term
        r, m = self.coords, self.modulus
        powers = [tuple(1 if t == d else 0 for t in range(r)) for d in range(r)]
        top = tuple(-c % m for c in self.poly[:r])
        for _ in range(r - 1):
            last = powers[-1]
            powers.append(tuple((s + last[-1] * c) % m for s, c in zip((0,) + last[:-1], top)))
        self._x_powers = tuple(powers)
        self.facts = {}  # Frobenius columns per power, trace dual, tensor blocks (`remembered`)

    def __eq__(self, other):
        if other.__class__ is not Atom:
            return NotImplemented
        return (self.kind, self.p, self.k, self.poly) == (other.kind, other.p, other.k, other.poly)

    def __hash__(self):
        return hash((self.kind, self.p, self.k, self.poly))

    def __repr__(self):
        return f"Atom(kind={self.kind!r}, p={self.p!r}, k={self.k!r}, poly={self.poly!r})"

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

    @remembered
    def frobenius_cols(self, j):
        """Images of the basis 1, x, ..., x^(r-1), r = `coords`, under
        Frobenius^j, built once per j: the powers of y = x^(p^j), with y found
        by square-and-multiply.  On one coordinate they are the identity."""
        if j and self.kind == "zmod":
            raise RingError(f"{self.label()} admits no twist, got {j}")
        r = self.coords
        one = (1,) + (0,) * (r - 1)
        x = tuple(1 if t == 1 else 0 for t in range(r))
        y, e = one, self.p ** (j % r)
        while e:
            if e & 1:
                y = self.mul_coords(y, x)
            x = self.mul_coords(x, x)
            e >>= 1
        cols = [one]
        for _ in range(r - 1):
            cols.append(tuple(self.mul_coords(cols[-1], y)))
        return tuple(cols)

    @remembered
    def trace_dual(self):
        """The basis y_0, ..., y_(r-1) dual to 1, x, ..., x^(r-1), r =
        `coords`, under the trace form Tr(uv), Tr = sum_{j<r} Frob^j: the
        coordinate tuples with Tr(x^a y_b) = [a = b].  On one coordinate (Z/p^k,
        or GF(p)) Tr is the identity and it is ((1,),).

        On GF(p^k), Tr is F_p-linear and not zero (as a polynomial of degree
        p^(k-1) it has fewer than p^k roots), so for u != 0 the map
        v -> Tr(uv) is not zero either: the trace form is nondegenerate, and
        its Gram matrix G[a][b] = Tr(x^(a+b)) is invertible mod p.  G is
        symmetric, so y_b is row b of G^-1.  Then for every t,
        sum_u x^u Frob^t(y_u) = [t = 0 mod k]: with M[j][u] = Frob^j(x^u)
        and N[j][u] = Frob^j(y_u), j < k, (M^T N)[a][b] = Tr(x^a y_b) = [a = b],
        so M^T N = I, hence N M^T = I, whose entry (t, 0) is that sum.
        """
        r, p = self.coords, self.p
        if r == 1:
            return ((1,),)
        # Tr(x^u) is the sum of the constant terms of the Frobenius images of x^u
        traces = [sum(self.frobenius_cols(j)[u][0] for j in range(r)) for u in range(r)]
        gram = [[sum(c * t for c, t in zip(self._x_powers[a + b], traces)) % p for b in range(r)]
                for a in range(r)]
        # Gauss-Jordan on [G | I] mod p
        rows = [row + [int(a == b) for b in range(r)] for a, row in enumerate(gram)]
        for c in range(r):
            pivot = next(i for i in range(c, r) if rows[i][c])
            rows[c], rows[pivot] = rows[pivot], rows[c]
            top = [v * pow(rows[c][c], -1, p) % p for v in rows[c]]
            rows = [top if i == c else [(v - row[c] * w) % p for v, w in zip(row, top)]
                    for i, row in enumerate(rows)]
        return tuple(tuple(row[r:]) for row in rows)

    @remembered
    def tensor_block(self, other, comps):
        """F (x)_R G for this atom F and `other`, G, kept per G and `comps`,
        the components (on F, on G) of each generator r of R: an
        `AbelianPresentation` on the pairs x^i (x) x^j at i * (G's `coords`) + j,
        each of order the gcd of the two moduli, whose relations are the
        nonzero columns (r x^i) (x) x^j - x^i (x) (r x^j)."""
        l = other.coords
        units = [[tuple(int(q == i) for q in range(a.coords)) for i in range(a.coords)]
                 for a in (self, other)]
        cols = []
        for on_f, on_g in comps:
            if on_f == on_g and not any(on_f[1:]):
                continue  # r is c times 1 on both atoms, and its columns are zero
            left = [self.mul_coords(on_f, u) for u in units[0]]
            right = [other.mul_coords(on_g, u) for u in units[1]]
            for i, j in itertools.product(range(self.coords), range(l)):
                col = {a * l + j: u for a, u in enumerate(left[i]) if u}
                for c, v in enumerate(right[j]):
                    col[i * l + c] = col.get(i * l + c, 0) - v
                if col := {p: x for p, x in col.items() if x}:
                    cols.append(col)
        moduli = [math.gcd(self.modulus, other.modulus)] * (self.coords * l)
        return AbelianPresentation(moduli, Matrix(len(moduli), cols))

    def mul_coords(self, u, v):
        """Product of two coordinate chunks of this atom, as a list of ints:
        their product as polynomials, each x^d with d >= `coords` rewritten
        by `_x_powers` (on one coordinate, the product mod `modulus`)."""
        r = self.coords
        if r == 1:
            return [u[0] * v[0] % self.modulus]
        conv = [0] * (2 * r - 1)
        for i, x in enumerate(u):
            if x:
                for d, y in enumerate(v, i):
                    conv[d] += x * y
        for d in range(r, 2 * r - 1):
            c = conv[d]
            if c:
                for t, z in enumerate(self._x_powers[d]):
                    conv[t] += c * z
        m = self.modulus
        return [c % m for c in conv[:r]]

    def label(self):
        if self.kind == "zmod":
            return f"Z/{self.order}"
        return f"GF({self.order})"


class FiniteRing:
    """An ordered product of atoms; elements are coordinate vectors, each
    atom's coordinates in one span, in the order of the atoms."""

    def __init__(self, atoms):
        atoms = tuple(atoms)
        if not atoms:
            raise RingError("a ring needs at least one atom")
        shared = {}  # one object per distinct atom, so that equal atoms share their facts
        self.atoms = atoms = tuple(shared.setdefault(a, a) for a in atoms)
        self.size = math.prod(a.order for a in atoms)
        self.coord_moduli = tuple(m for a in atoms for m in a.coord_moduli)
        self.n_coords = len(self.coord_moduli)
        self._spans = []
        pos = 0
        for a in atoms:
            self._spans.append((pos, pos + a.coords))
            pos += a.coords
        self._coord_atoms = tuple(idx for idx, a in enumerate(atoms) for _ in range(a.coords))
        self._coord_bits = tuple(1 << a for a in self._coord_atoms)
        self.exponent = math.lcm(*self.coord_moduli)
        self.zero_vec = (0,) * self.n_coords
        self.one_vec = tuple(x for a in atoms for x in (1,) + (0,) * (a.coords - 1))
        self.facts = {}  # what is derived from the atoms, each once (`remembered`)

    @property
    @remembered
    def presentation(self):
        """The additive group, built on first use."""
        return AbelianPresentation(self.coord_moduli)

    def __eq__(self, other):
        return self is other or isinstance(other, FiniteRing) and self.atoms == other.atoms

    def __hash__(self):
        return hash(self.atoms)

    def __repr__(self):
        return "FiniteRing(" + " x ".join(a.label() for a in self.atoms) + ")"

    # -- elements ---------------------------------------------------------

    def element(self, comps):
        """The element with per-atom components `comps`, in the format of
        `RingElement.comps`: an int on a Z/p^k atom, a tuple on GF(p^k)."""
        comps = tuple(comps)
        if len(comps) != len(self.atoms):
            raise AtomMismatch("component count mismatch")
        vec = []
        for a, c in zip(self.atoms, comps):
            if a.kind == "zmod":
                vec.append(c)
            else:
                c = tuple(c)
                if len(c) != a.k:
                    raise AtomMismatch("GF component length mismatch")
                vec.extend(c)
        return self.from_vec(vec)

    def idempotent_vec(self, support):
        """The indicator of a set of atoms, any iterable of them, as a
        coordinate vector (`_indicator`)."""
        return self._indicator(frozenset(support))

    @remembered
    def _indicator(self, support):
        """The indicator of a frozenset of atoms, kept per set."""
        firsts = {self._spans[i][0] for i in support}
        return tuple(int(c in firsts) for c in range(self.n_coords))

    def from_vec(self, vec):
        return RingElement(self, tuple(int(v) % m for v, m in zip(vec, self.coord_moduli)))

    @remembered
    def basis_vectors(self):
        """Atom-pure additive generators e_0, ..., e_{n-1} as coordinate vectors:
        the unit vectors, each cut from `zero_vec`."""
        zero = self.zero_vec
        return tuple(zero[:i] + (1,) + zero[i + 1:] for i in range(self.n_coords))

    def coord_atom(self, i):
        """Atom index owning flat coordinate i."""
        return self._coord_atoms[i]

    def atom_span(self, idx):
        return self._spans[idx]

    # -- vector arithmetic (used by the solvers, avoids element objects) ---

    def add_vec(self, u, v):
        return tuple(map(operator.mod, map(operator.add, u, v), self.coord_moduli))

    def sub_vec(self, u, v):
        return tuple(map(operator.mod, map(operator.sub, u, v), self.coord_moduli))

    def mul_vec(self, u, v):
        """Product of coordinate vectors, atom by atom, every atom charged on
        every call; an atom where either factor is zero gets zeros without a
        product."""
        spend("ring_products", len(self.atoms))
        out = []
        for (lo, hi), a in zip(self._spans, self.atoms):
            x, y = u[lo:hi], v[lo:hi]
            if any(x) and any(y):
                out.extend(a.mul_coords(x, y))
            else:
                out.extend([0] * (hi - lo))
        return tuple(out)

    def atom_mask(self, vec):
        """The atoms on which a coordinate vector is nonzero, as a bit mask:
        the sum of the distinct bits of its nonzero coordinates' atoms."""
        return sum(set(itertools.compress(self._coord_bits, vec)))

    def is_unit_vec(self, vec):
        """The element is a unit: on every atom some coordinate is prime to
        p, as an atom's maximal ideal is p times the atom."""
        return all(any(x % a.p for x in vec[lo:hi]) for (lo, hi), a in zip(self._spans, self.atoms))

    def mask_vec(self, u, support):
        out = [0] * self.n_coords
        for idx in support:
            lo, hi = self._spans[idx]
            out[lo:hi] = u[lo:hi]
        return tuple(out)

    # -- enumeration ------------------------------------------------------

    def elements(self):
        spend("elements", self.size)
        for vec in itertools.product(*[range(m) for m in self.coord_moduli]):
            yield RingElement(self, vec)


class RingElement:
    """An element of a FiniteRing; immutable and hashable.

    It holds its reduced coordinate vector, and its arithmetic is the ring's
    coordinate kernel (`add_vec`, `mul_vec`); `comps` reads the vector per
    atom, as the element is printed.
    """

    __slots__ = ("ring", "_vec")

    def __init__(self, ring, vec):
        self.ring = ring
        self._vec = vec

    def _check(self, other):
        if not isinstance(other, RingElement) or other.ring != self.ring:
            raise AtomMismatch("elements from different rings")

    def __add__(self, other):
        self._check(other)
        return self.ring.from_vec(self.ring.add_vec(self._vec, other._vec))

    def __neg__(self):
        return self.ring.from_vec(tuple(-x for x in self._vec))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.ring.from_vec(tuple(other * x for x in self._vec))
        self._check(other)
        return self.ring.from_vec(self.ring.mul_vec(self._vec, other._vec))

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, RingElement) and self.ring == other.ring and self._vec == other._vec

    def __hash__(self):
        return hash(self._vec)

    def __repr__(self):
        return f"<{', '.join(map(str, self.comps))}>"

    @property
    def comps(self):
        """The per-atom components: an int on a Z/p^k atom, a tuple of its
        coordinates on a GF(p^k) atom (a 1-tuple on GF(p))."""
        vec = self._vec
        return tuple(vec[lo] if a.kind == "zmod" else vec[lo:hi]
                     for (lo, hi), a in zip(self.ring._spans, self.ring.atoms))

    def support(self):
        vec = self._vec
        return frozenset(i for i, (lo, hi) in enumerate(self.ring._spans) if any(vec[lo:hi]))

    def is_idempotent(self):
        return self * self == self

    def vec(self):
        return self._vec

    def mask(self, support):
        return RingElement(self.ring, self.ring.mask_vec(self._vec, support))


class StructuredIso:
    """A ring isomorphism between unital ideals, stored as atom data.

    `atom_map` has one entry per atom of the ring: (image atom, twist) on
    each atom of the domain, and None elsewhere.  The image atom carries the
    same (kind, p, k, poly); the twist is the Frobenius power applied on the
    atom, reduced mod its `coords` (so always 0 on Z/p^k), so that equal maps
    have equal tuples.  Local atoms force any isomorphism of unital ideals
    into this shape.  The constructor takes `matching` (domain atom -> image
    atom) and `twist` (domain atom -> Frobenius power, 0 where absent) dicts
    and checks them; `trusted(ring, atom_map)` builds an iso derived from
    valid ones (a composite, inverse or join) without
    checks.  `matching` and `twist` read the tuple back as read-only dicts.
    """

    __slots__ = ("ring", "atom_map", "facts")

    def __init__(self, ring, matching, twist):
        matching, twist = dict(matching), {i: int(t) for i, t in twist.items()}
        atoms = range(len(ring.atoms))
        outside = [i for i in (*matching, *matching.values()) if i not in atoms]
        if outside:
            raise RingError(f"atom {outside[0]} is not an atom of a ring with {len(atoms)} atoms")
        if len(set(matching.values())) != len(matching):
            raise RingError("matching is not a bijection")
        if not twist.keys() <= matching.keys():
            raise RingError(f"twist on atoms {sorted(twist.keys() - matching.keys())} outside the domain")
        atom_map = [None] * len(atoms)
        for i, j in matching.items():
            a, b = ring.atoms[i], ring.atoms[j]
            if a != b:
                raise RingError(f"atoms {i} and {j} differ; no isomorphism can match them")
            t = twist.get(i, 0)
            if a.kind == "zmod" and t:
                raise RingError(f"atom {i} is {a.label()}, which admits no twist (got {t})")
            atom_map[i] = (j, t % a.coords)
        self.ring, self.atom_map, self.facts = ring, tuple(atom_map), {}

    @staticmethod
    def trusted(ring, atom_map):
        """The iso of a valid `atom_map`: a tuple with one entry per atom,
        matching equal atoms bijectively, each twist reduced mod its atom's
        `coords`."""
        iso = StructuredIso.__new__(StructuredIso)
        iso.ring, iso.atom_map, iso.facts = ring, atom_map, {}
        return iso

    @property
    def matching(self):
        return MappingProxyType({i: v[0] for i, v in enumerate(self.atom_map) if v})

    @property
    def twist(self):
        return MappingProxyType({i: v[1] for i, v in enumerate(self.atom_map) if v})

    @property
    @remembered
    def dom_support(self):
        """The domain's atoms, built on first read."""
        return frozenset(i for i, v in enumerate(self.atom_map) if v)

    @property
    @remembered
    def im_support(self):
        """The image's atoms, built on first read."""
        return frozenset(v[0] for v in self.atom_map if v)

    def __eq__(self, other):
        return (isinstance(other, StructuredIso) and self.atom_map == other.atom_map
                and (self.ring is other.ring or self.ring == other.ring))

    def __hash__(self):
        return hash(self.atom_map)

    def __repr__(self):
        parts = [f"{i}->{v[0]}^{v[1]}" for i, v in enumerate(self.atom_map) if v]
        return "Iso(" + (", ".join(parts) or "0") + ")"

    @staticmethod
    def identity_on(ring, support):
        return StructuredIso(ring, {i: i for i in support}, {})

    @staticmethod
    def empty(ring):
        return StructuredIso(ring, {}, {})

    def is_identity_map(self):
        return all(v is None or v == (i, 0) for i, v in enumerate(self.atom_map))

    def inverse(self):
        atom_map = [None] * len(self.atom_map)
        for i, v in enumerate(self.atom_map):
            if v:
                atom_map[v[0]] = (i, -v[1] % self.ring.atoms[i].coords)
        return StructuredIso.trusted(self.ring, tuple(atom_map))

    def apply(self, el):
        if not isinstance(el, RingElement) or el.ring != self.ring:
            raise AtomMismatch("element not in this ring")
        if not el.support() <= self.dom_support:
            raise OutOfDomain(f"element supported on {sorted(el.support())} not in domain {sorted(self.dom_support)}")
        return self.ring.from_vec(self.apply_vec(el.vec()))

    @remembered
    def application_plan(self):
        """((domain coordinate, ((image coordinate, coefficient), ...)), ...):
        the nonzero entries of the Frobenius blocks, built on first use."""
        ring = self.ring
        plan = []
        for i, (j, t) in ((i, v) for i, v in enumerate(self.atom_map) if v):
            lo_d, lo_i = ring.atom_span(i)[0], ring.atom_span(j)[0]
            for c, col in enumerate(ring.atoms[i].frobenius_cols(t)):
                plan.append((lo_d + c, tuple((lo_i + r, int(z)) for r, z in enumerate(col) if z)))
        return tuple(plan)

    def apply_vec(self, vec):
        """(mask to domain, then apply) on coordinates, by the plan."""
        out = [0] * self.ring.n_coords
        for c, targets in self.application_plan():
            x = vec[c]
            if x:
                for r, z in targets:
                    out[r] += x * z
        return tuple(map(operator.mod, out, self.ring.coord_moduli))


class Subalgebra:
    """An additive subgroup of a ring stored by a canonical Hermite basis.

    Equality of subalgebras is equality of canonical bases.  The generators
    are the basis columns j with a nonzero residue; every other column is
    d_j e_j, zero in the ring.  Membership is one walk down the basis
    (`linalg.lattice_member`).  Closure under multiplication and presence
    of 1 are checked on demand, not assumed, and remembered: a subalgebra
    is never changed after construction.
    """

    def __init__(self, ring, gen_vectors):
        self._set_basis(ring, ring.presentation.subgroup_canon([tuple(v) for v in gen_vectors]))

    def _set_basis(self, ring, basis):
        self.ring = ring
        self.basis = basis
        self.order = ring.presentation.order() // lattice_det(basis)
        # canonical columns are reduced, and one whose pivot is the modulus is
        # d_j e_j, zero in the ring; the others are the generators
        self.gen_vectors = tuple(basis.column(j) for j, (c, d)
                                 in enumerate(zip(basis.cols, ring.coord_moduli)) if c[j] != d)
        self.facts = {}  # what is derived from the basis, each once (`remembered`)

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
        sub.facts["is_subalgebra"] = True
        return sub

    def __eq__(self, other):
        return (isinstance(other, Subalgebra) and self.ring == other.ring
                and self.basis == other.basis)

    @remembered
    def __hash__(self):
        return hash((self.ring, tuple(tuple(sorted(c.items())) for c in self.basis.cols)))

    def __repr__(self):
        return f"Subalgebra(order={self.order})"

    def member_vec(self, vec):
        return lattice_member(self.basis, vec)

    def generators(self):
        return [self.ring.from_vec(v) for v in self.gen_vectors]

    def contains(self, other):
        return all(self.member_vec(v) for v in other.gen_vectors)

    def contains_one(self):
        return self.member_vec(self.ring.one_vec)

    def closed_under_mul(self):
        """Every product of two generators lies in the span (`_products`)."""
        return all(map(self.member_vec, _products(self.ring, self.gen_vectors, 0)))

    @remembered
    def is_subalgebra(self):
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


def _products(ring, gens, checked):
    """The products gens[i] * gens[j] for i <= j and j >= checked, each
    unordered pair once (the ring is commutative), j before i, taken as
    they are read: a pair on disjoint atoms multiplies to 0, so only the
    pairs whose atoms meet are multiplied."""
    masks = list(map(ring.atom_mask, gens))
    return itertools.starmap(ring.mul_vec, [(gens[i], gens[j]) for j in range(checked, len(gens))
                                            for i in range(j + 1) if masks[i] & masks[j]])


def _close_under_mul(current, gens, checked):
    """Close `current`, spanned by `gens`, under multiplication.

    The products among `gens[:checked]` are known to lie in `current`, so
    each round multiplies only the newly added generators (`_products`) and
    inserts only the products it finds outside the span.
    """
    while True:
        extra = {}
        for w in _products(current.ring, gens, checked):
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
    direct sum of its blocks.  The block ring's coordinates are A's
    coordinates on O's atoms, in A's order (`coords`).  The block of all
    the atoms is A itself.
    """

    def __init__(self, ring, atoms):
        self.whole = ring
        self.atoms = tuple(sorted(atoms))
        self.ring = (ring if len(self.atoms) == len(ring.atoms)
                     else FiniteRing([ring.atoms[a] for a in self.atoms]))
        self.coords = tuple(c for a in self.atoms for c in range(*ring.atom_span(a)))
        self.facts = {}  # its unit generators (`remembered`)

    def restrict(self, vec):
        """The block-ring coordinates of vec * e_O."""
        return tuple(vec[c] for c in self.coords)

    def extend(self, vec):
        """The vector of A that is `vec` on the block and zero elsewhere."""
        out = [0] * self.whole.n_coords
        for c, x in zip(self.coords, vec):
            out[c] = x
        return tuple(out)

    def basis(self, sub):
        """The canonical basis of sub * e_O on the block ring; sub must contain e_O.

        sub is then the direct sum of its blocks, so its canonical basis is
        theirs put in place: the columns at the block's coordinates, read
        back, are the block's canonical basis.
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
            part.facts["is_subalgebra"] = True  # e_O is its one
        return part


class TensorPresentation:
    """A (x)_R A for a unital subalgebra R of the ring A, as an abelian group.

    Generator pair (i, j) is e_i (x) e_j of A's unit vectors, at i * n + j
    for n = k = l coordinates.  Each A e_a of an atom a is an ideal, so the
    group is the direct sum of its atom-pair blocks F_a (x)_R F_b, on the
    pairs with i on atom a and j on atom b, and a block depends only on the
    two atoms and on R's generators' components there: `blocks[a][b]` is
    that block (`Atom.tensor_block`), reduced once per distinct key: the
    m^2 blocks of m equal atoms on which R's generators agree are one.  The
    group on all pairs (`pres`) is built only when read, and no decision
    reads it: psi and the separability check read the blocks.
    The constructor raises unless R is a unital subalgebra of the ring.
    """

    def __init__(self, ring, R):
        if R.ring != ring:
            raise AtomMismatch("R lives in another ring")
        if not R.is_subalgebra():
            raise NotSubring("R must be a unital subalgebra")
        self.ring, self.R = ring, R
        self.k = self.l = ring.n_coords
        self.facts = {}  # the group on all pairs (`remembered`)
        atoms = ring.atoms
        parts = [[r[slice(*ring.atom_span(a))] for r in R.gen_vectors] for a in range(len(atoms))]
        self.blocks = tuple(tuple(f.tensor_block(g, tuple(zip(parts[a], parts[b])))
                                  for b, g in enumerate(atoms)) for a, f in enumerate(atoms))

    @property
    @remembered
    def pres(self):
        """The group on all n * n pairs, built on first read: pair (i, j) of
        block (a, b) goes to (lo_a + i) * n + lo_b + j, with lo_a the first
        coordinate of atom a.  That map is increasing on each block, so each
        block's canonical basis, put in place, stays lower-triangular and
        reduced, and the canonical basis of the direct sum is the blocks'
        put in place: it is set, not reduced again."""
        ring, n = self.ring, self.l
        lo = [ring.atom_span(a)[0] for a in range(len(ring.atoms))]
        moduli, rels, cols = [1] * (n * n), [], [None] * (n * n)
        for a, row in enumerate(self.blocks):
            for b, pair in enumerate(row):
                l = ring.atoms[b].coords
                at = [(lo[a] + p // l) * n + lo[b] + p % l for p in range(pair.n)]
                for p, d, c in zip(at, pair.moduli, pair.lattice.cols):
                    moduli[p], cols[p] = d, {at[r]: v for r, v in c.items()}
                rels += [{at[r]: v for r, v in c.items()} for c in pair.relations.cols]
        pres = AbelianPresentation(moduli, Matrix(n * n, rels))
        pres.facts["lattice"] = Matrix(n * n, cols)
        return pres

    def order(self):
        return math.prod(pair.order() for row in self.blocks for pair in row)
