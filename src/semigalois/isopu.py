"""The inverse semigroup of partial ring isomorphisms between unital ideals.

Elements are StructuredIso objects, each its `atom_map`: (image atom,
twist) on each atom of its domain and None elsewhere.  Composition is
restricted, f g = f|_(im g  cap  dom f) o g|_(...), and reads the two
tuples atom by atom; the empty iso (zero ideal to zero ideal) is a
legitimate element and acts as a zero.  Compatibility, finite joins and the
natural partial order are all computed structurally, with the defining
extensional characterizations re-checked against each other.
"""

from __future__ import annotations

import itertools

from .rings import RingError, StructuredIso


class NotCompatible(RingError):
    pass


class LemmaMismatch(AssertionError):
    """The two characterizations of compatibility disagreed: internal bug."""


def compose(f: StructuredIso, g: StructuredIso) -> StructuredIso:
    """Restricted composition f o g on g^{-1}(im g cap dom f)."""
    if f.ring is not g.ring and f.ring != g.ring:
        raise RingError("isos on different rings")
    outer, atoms = f.atom_map, f.ring.atoms
    return StructuredIso.trusted(f.ring, tuple([
        None if v is None or (w := outer[v[0]]) is None else (w[0], (v[1] + w[1]) % atoms[i].coords)
        for i, v in enumerate(g.atom_map)]))


def is_idempotent_iso(f: StructuredIso) -> bool:
    return compose(f, f) == f


def _restrictions_agree(f, g, atoms):
    return all(f.atom_map[i] == g.atom_map[i] for i in atoms)


def is_compatible(f: StructuredIso, g: StructuredIso) -> bool:
    """f ~ g, checked two ways and asserted to agree.

    (a) f^{-1} g and f g^{-1} are idempotents of Iso_pu;
    (b) f, g coincide on dom f cap dom g, and f^{-1}, g^{-1} coincide on
        im f cap im g.
    """
    fi, gi = f.inverse(), g.inverse()
    via_idem = is_idempotent_iso(compose(fi, g)) and is_idempotent_iso(compose(f, gi))
    via_restr = (_restrictions_agree(f, g, f.dom_support & g.dom_support)
                 and _restrictions_agree(fi, gi, f.im_support & g.im_support))
    if via_idem != via_restr:
        raise LemmaMismatch(f"compatibility characterizations disagree on {f}, {g}")
    return via_idem


def natural_leq_iso(f: StructuredIso, g: StructuredIso) -> bool:
    """f <= g iff f is a restriction of g."""
    if f.ring is not g.ring and f.ring != g.ring:
        raise RingError("isos on different rings")
    return all(v is None or v == w for v, w in zip(f.atom_map, g.atom_map))


def join_sum(isos) -> StructuredIso:
    """The sum (least upper bound) of a pairwise compatible family."""
    isos = list(isos)
    if not isos:
        raise NotCompatible("join of an empty family")
    ring = isos[0].ring
    for f, g in itertools.combinations(isos, 2):
        if not is_compatible(f, g):
            raise NotCompatible(f"{f} and {g} are not compatible")
    atom_map = [None] * len(ring.atoms)
    for f in isos:
        for i, v in enumerate(f.atom_map):
            atom_map[i] = v or atom_map[i]
    return StructuredIso.trusted(ring, tuple(atom_map))


def join_product_table(joins):
    """The product of class joins: the one join above each nonempty composite,
    and the empty join for an empty composite.

    Raises AssertionError when a nonempty composite lies below no join or
    below several.
    """
    table = []
    for a, f in enumerate(joins):
        row = []
        for b, g in enumerate(joins):
            comp = compose(f, g)
            if not comp.dom_support:
                row.append(joins.index(comp))
                continue
            above = [c for c, h in enumerate(joins) if natural_leq_iso(comp, h)]
            if len(above) != 1:
                raise AssertionError(f"composite of classes {a},{b} sits below {above}")
            row.append(above[0])
        table.append(tuple(row))
    return tuple(table)


def composition_table(isos):
    """table[a][b] is the index of isos[a] isos[b]; `isos` must be closed."""
    index = {f: i for i, f in enumerate(isos)}
    table = [[index.get(compose(f, g)) for g in isos] for f in isos]
    if any(None in row for row in table):
        raise AssertionError("the isos are not closed under composition")
    return table
