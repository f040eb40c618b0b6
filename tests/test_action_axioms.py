"""The table-driven action-axiom checker against the four validators it replaced.

`tests/oracles.py` keeps the old validators, each with its own loops.
Seeded corpus actions (unital ones without and with zero, the induced
partial actions of S/sigma, orthogonal groupoid actions and their zero
adjunctions) are mutated by replacing one iso with another element of
Iso_pu(A).  Old and new must agree on acceptance, exception class,
AxiomFail tag and message.  Every axiom of every row must fail at least
once, over the mutations and a few hand-built cases.
"""

import functools
import random
import re
import string

import pytest

import oracles
from fixtures import groupoid_action_corpus
from semigalois import actions as ac, isopu, zerocase as zc
from semigalois.corpus import b2_swap_fixture, c2_swap_fixture, corpus, f9_cubed_fixture
from semigalois.rings import Atom, FiniteRing, StructuredIso
from semigalois.semigroups import InverseSemigroup, is_e_unitary

MUTATIONS = 12


def _pgr(gamma):
    return lambda isos: (gamma.S, gamma.A, isos)


# row -> (new entry point, old validator); each takes the arguments its
# input's `args(isos)` builds.
ROUTES = {
    "unital": (ac.validate_action, oracles.validate_action_by_own_loops),
    "partial group": (ac.validate_partial_group_action,
                      oracles.validate_partial_group_action_by_own_loops),
    "PIS": (zc.validate_partial_semigroup_action,
            oracles.validate_partial_semigroup_action_by_own_loops),
    "PGr": (zc.validate_partial_groupoid_action,
            oracles.validate_partial_groupoid_action_by_own_loops),
}


def _outcome(fn, args):
    """None if `fn(*args)` accepts, else (class, AxiomFail tag, message)."""
    try:
        fn(*args)
    except Exception as exc:  # the class itself is what is compared
        return type(exc), getattr(exc, "tag", None), str(exc)
    return None


def _semigroup_inputs(beta):
    """The unital and the PIS reading (a zero-free S fails the PIS zero axiom)."""
    def args(isos):
        return beta.S, beta.A, isos
    return [(row, args, beta.isos, beta.S.inv) for row in ("unital", "PIS")]


def _inputs():
    """(row, args(isos), isos, inverse of each element) for every corpus action and reading."""
    out = []
    zero_free = corpus(31, 40)
    for beta in zero_free + corpus(31, 25, with_zero=True) + [b2_swap_fixture()]:
        out += _semigroup_inputs(beta)
    for beta in zero_free + [f9_cubed_fixture(), c2_swap_fixture()]:
        if is_e_unitary(beta.S) and ac.is_injective(beta):
            a = ac.induce_partial_group_action(beta)
            out.append(("partial group", lambda isos, a=a: (a.S, a.A, isos), a.isos,
                        a.S.inv))
    for gamma in groupoid_action_corpus(31, 25):
        out.append(("PGr", _pgr(gamma), gamma.isos, gamma.S.inv))
        z = zc.groupoid_action_to_semigroup(gamma)
        out.append(("PIS", lambda isos, z=z: (z.S, z.A, isos), z.isos, z.S.inv))
    return out


def _relabelled(S, **fields):
    """S with some of its fields replaced, as no validated table would have them."""
    kw = dict(table=S.table, inv=S.inv, zero=S.zero, names=S.names, idems=S.idempotents,
              leq=S.leq)
    return InverseSemigroup(**{**kw, **fields})


def _groupoid_args(n, product, names, A):
    G = zc.validate_groupoid(n, product, names)
    return lambda isos: (G, A, isos)


def _hand_built():
    """Inputs for the axioms that replacing isos does not reach.

    A valid homomorphism sends idempotents to idempotents (identities in
    Iso_pu) and inverses to inverses, so the unital checker's last two
    axioms are reached through a semigroup record with a mislabelled
    idempotent or inverse.  Likewise orthogonal identity ideals leave every
    undefined groupoid product with an empty composite, so that axiom is
    reached through a groupoid record that leaves e*g undefined in C2 (g*g
    stays defined, as the checker reads the range of g from the table).
    C3 = {e, a, a2} on one object, with a acting as the partial shift
    0->1, 1->2 of (Z/3)^3, has beta_a beta_a on {0}, outside the domain
    {1, 2} of beta_a2.
    """
    beta = c2_swap_fixture()
    S, A = beta.S, beta.A
    other = FiniteRing([Atom.zmod(3), Atom.zmod(3), Atom.zmod(3)])
    gamma = groupoid_action_corpus(31, 1)[0]
    z = zc.groupoid_action_to_semigroup(gamma)
    F3, F27 = FiniteRing([Atom.zmod(3)]), FiniteRing([Atom.zmod(3)] * 3)
    shift = StructuredIso(F27, {0: 1, 1: 2}, {})
    c3 = ([[0, 1, 2], [1, 2, 0], [2, 0, 1]], ["e", "a", "a2"])
    c3_isos = (StructuredIso.identity_on(F27, {0, 1, 2}), shift, shift.inverse())
    undefined_left = zc.Groupoid(2, ((0, None), (1, 0)), ("e", "g"), (0, 0), (0, 0), (0, 1))
    return [
        ("PGr", _groupoid_args(3, *c3, F27), c3_isos),
        ("PGr", lambda isos: (undefined_left, F3, isos),
         (StructuredIso.identity_on(F3, {0}),) * 2),
        ("unital", lambda isos: (S, A, isos), beta.isos[:1]),
        ("unital", lambda isos: (S, A, isos),
         (StructuredIso.identity_on(other, {0, 1, 2}), beta.isos[1])),
        ("unital", lambda isos: (_relabelled(S, idems=frozenset({0, 1})), A, isos), beta.isos),
        ("unital", lambda isos: (_relabelled(S, inv=(0, 0)), A, isos), beta.isos),
        ("PIS", lambda isos: (z.S, z.A, isos), z.isos[1:]),
        ("PGr", _pgr(gamma), gamma.isos[1:]),
    ]


def _mutations(rng, isos, inv, universe):
    """isos itself, then copies with beta_s replaced by a random f, and with
    (beta_s, beta_{s^-1}) replaced by (f, f^-1), which keeps the inverse axiom."""
    yield tuple(isos)
    for m in range(MUTATIONS):
        s, f = rng.randrange(len(isos)), rng.choice(universe)
        bad = list(isos)
        bad[s] = f
        if m % 2:
            bad[inv[s]] = f.inverse() if inv[s] != s else f
        yield tuple(bad)


@functools.lru_cache(maxsize=None)
def _universe(ring):
    return oracles.iso_pu_elements(ring)


@pytest.fixture(scope="module")
def compared():
    """Every compared input's new outcome, keyed by row; asserts agreement on the way."""
    rng = random.Random(2024)
    seen = {row: [] for row in ROUTES}
    cases = [(row, args, m) for row, args, isos, inv in _inputs()
             for m in _mutations(rng, isos, inv, _universe(isos[0].ring))]
    cases += _hand_built()
    for row, args, isos in cases:
        new_fn, old_fn = ROUTES[row]
        new, old = _outcome(new_fn, args(isos)), _outcome(old_fn, args(isos))
        assert new == old, (row, isos)
        seen[row].append(new)
    return seen


def test_old_and_new_validators_agree_and_both_verdicts_occur(compared):
    for row, outcomes in compared.items():
        assert None in outcomes, f"{row}: no accepted input"
        assert any(outcomes), f"{row}: no rejected input"


def _raised_by(error, template, outcome):
    """Whether `outcome` is the error an axiom with this error and message raises."""
    cls, tag, message = outcome
    pattern = "".join(re.escape(text) + (".+" if field is not None else "")
                      for text, field, _, _ in string.Formatter().parse(template))
    if isinstance(error, str):
        return cls is ac.AxiomFail and tag == error and re.fullmatch(f"{tag}: {pattern}", message)
    return cls is error and re.fullmatch(pattern, message)


@pytest.mark.parametrize("row", list(ROUTES))
def test_every_axiom_of_every_row_fails_somewhere(compared, row):
    """Each axiom is told by its error and message; the partial-group identity
    and cover axioms share both, so one failure counts for the two.  (A
    zero-free S fails the PIS zero axiom with ZeroRequired, no axiom's error.)"""
    failures = [o for o in compared[row] if o]
    missed = [axiom for axiom, (error, template) in ac.ACTION_ROWS[row].items()
              if not any(_raised_by(error, template, o) for o in failures)]
    assert not missed


def test_merged_checker_composes_once_per_pair(monkeypatch):
    """The pair axioms of a row share one composite per ordered pair."""
    beta = f9_cubed_fixture()
    calls = []
    compose = isopu.compose
    monkeypatch.setattr(isopu, "compose", lambda f, g: calls.append(1) or compose(f, g))
    ac.validate_action(beta.S, beta.A, beta.isos)
    assert len(calls) == beta.S.n ** 2
