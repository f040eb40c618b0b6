"""Each decision derives every fact, product, iso image and linear system once.

Call counts around one in-process `cli.main` on the shipped instances (the
facts each semigroup and action remembers, and the solves), the per-ring
product table (a lookup returns the product and is charged like one), and
the per-iso application plan against the iso matrix and the polynomial
Frobenius.
"""

import collections
import random
from pathlib import Path

import pytest

from semigalois import actions, budget, cli, correspondence, galois, semigroups, zerocase
from semigalois import rings as rg
from semigalois.corpus import (b2_swap_fixture, c2_fixed_atom_fixture,
                               collapsing_semilattice_fixture, f9_cubed_fixture, random_ring,
                               random_structured_iso)
from oracles import element_product, iso_apply_by_polynomials

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def _run(capsys, *args):
    code = cli.main(list(args))
    capsys.readouterr()
    return code


def _recording(monkeypatch, owner, name, record):
    original = getattr(owner, name)

    def wrapper(*args, **kwargs):
        record(*args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


@pytest.mark.parametrize("instance,solves", [("c2_swap.sgi", 1), ("s7_f9cubed.sgi", 2)])
def test_galois_solves_each_coordinate_system_once(monkeypatch, capsys, instance, solves):
    """On a group the partial-action system is the Galois system and reuses its
    solution; on the S7 monoid it differs and is solved apart."""
    calls = []
    _recording(monkeypatch, galois, "_solve_coordinates", lambda *a: calls.append(a))
    assert _run(capsys, "galois", str(INSTANCES / instance)) == 0
    assert len(calls) == solves


@pytest.mark.parametrize("args", [["correspond"], ["correspond", "--brute-force-subalgebras"],
                                  ["zero"]], ids=" ".join)
def test_correspondences_decide_galois_without_a_coordinate_solve(monkeypatch, capsys, args):
    """correspond (both routes) and zero take their "A is beta-Galois"
    precondition from the fixed-atom rule, so no command solves a coordinate
    system on any shipped instance, and each passes on some."""
    calls, codes = [], []
    _recording(monkeypatch, galois, "_solve_coordinates", lambda *a: calls.append(a))
    for path in sorted(INSTANCES.glob("*.sgi")):
        codes.append(_run(capsys, args[0], str(path), *args[1:]))
    assert calls == [] and 0 in codes


def test_scalar_extension_decides_galois_without_a_coordinate_solve(monkeypatch):
    """extend_scalars takes its "beta is Galois" precondition from the
    fixed-atom rule (one solve per call when it took the coordinate criterion)."""
    calls = []
    _recording(monkeypatch, galois, "_solve_coordinates", lambda *a: calls.append(a))
    assert actions.extend_scalars(f9_cubed_fixture()).pres.order() == 729
    with pytest.raises(actions.NotGalois):
        actions.extend_scalars(c2_fixed_atom_fixture())
    assert calls == []


ZERO_FACTS = ["_is_0_e_unitary", "_is_categorical_at_zero", "_is_primitive", "_tau_partition"]


@pytest.mark.parametrize("args", [["zero"], ["zero", "--brute-force-subalgebras"], ["analyze"]])
def test_zero_facts_are_derived_once_per_semigroup(monkeypatch, capsys, args):
    """Each zero-case fact is computed at most once per semigroup in one
    cli.main on b2_f3f3 (S, and P' of the tau-class joins, which zero also asks
    about), and the command reads them many times."""
    computed, asked = collections.Counter(), collections.Counter()
    held = []  # no two semigroups share an id
    for name in ZERO_FACTS:
        _recording(monkeypatch, zerocase, name,
                   lambda S, name=name: held.append(S) or computed.update([(name, id(S))]))
        _recording(monkeypatch, zerocase, name[1:], lambda S, name=name: asked.update([name]))
    assert _run(capsys, args[0], str(INSTANCES / "b2_f3f3.sgi"), *args[1:]) == 0
    assert computed and max(computed.values()) == 1
    assert {name for name, _ in computed} == set(ZERO_FACTS)
    if args[0] == "zero":
        assert sum(asked.values()) > len(computed)


# What each command derives about S (the first two) and about beta, by the
# function that derives it.
FACTS = [(semigroups, "_sigma_partition"), (semigroups, "_is_e_unitary"),
         (actions, "_is_injective"), (actions, "_invariant_ring"),
         (actions, "_induce_partial_group_action"), (galois, "_derive_galois_system"),
         (galois, "_derive_full_tensor")]
COMMANDS = [["galois"], ["correspond"], ["correspond", "--brute-force-subalgebras"],
            ["analyze"], ["zero"]]


@pytest.mark.parametrize("args", COMMANDS, ids=" ".join)
def test_facts_are_derived_once_per_semigroup_and_action(monkeypatch, capsys, args):
    """In one cli.main on each shipped instance, sigma and E-unitarity are
    derived at most once per semigroup object, and injectivity, A^beta, the
    induced alpha, the Galois system and A (x)_{A^beta} A at most once per
    action object."""
    derived, held = collections.Counter(), []  # held: no two objects share an id
    for owner, name in FACTS:
        _recording(monkeypatch, owner, name,
                   lambda obj, name=name: held.append(obj) or derived.update([(name, id(obj))]))
    seen = set()
    for path in sorted(INSTANCES.glob("*.sgi")):
        derived.clear()
        _run(capsys, args[0], str(path), *args[1:])
        assert all(count == 1 for count in derived.values()), (path.name, derived)
        seen |= {name for name, _ in derived}
    assert seen  # every command derives some fact on some instance
    if args == ["galois"]:
        assert seen == {name for _, name in FACTS}


def test_a_remembered_fact_raises_its_precondition_on_every_call():
    """A raise is never remembered: a precondition, or a budget trip inside
    the derivation, recurs on the next call, and the fact is derived once the
    trip is lifted."""
    beta = collapsing_semilattice_fixture()  # not injective
    for _ in range(2):
        with pytest.raises(actions.NotInjective):
            actions.induce_partial_group_action(beta)
    S = b2_swap_fixture().S  # declares a zero
    for _ in range(2):
        with pytest.raises(semigroups.ZeroForbidden):
            semigroups.sigma_partition(S)
    assert "alpha" not in beta.facts and "sigma" not in S.facts
    beta = f9_cubed_fixture()
    for _ in range(2):
        with budget.limit(1), pytest.raises(budget.BudgetExceeded):
            actions.invariant_ring(beta)
    assert "invariants" not in beta.facts
    assert actions.invariant_ring(beta) is actions.invariant_ring(beta)
    assert actions.invariant_ring(beta).order == 27


def test_verify_coordinates_takes_a_whole_system():
    """The default system is beta's Galois system; a given one is used whole."""
    beta = f9_cubed_fixture()
    coords = galois.solve_galois_coordinates(beta)
    isos, rhs = galois._galois_system(beta)
    assert galois.verify_coordinates(beta, coords)
    assert galois.verify_coordinates(beta, coords, system=(isos, rhs))
    assert not galois.verify_coordinates(beta, coords, system=(isos, rhs[1:] + rhs[:1]))
    assert not galois.verify_coordinates(beta, [(beta.A.one_vec, beta.A.one_vec)],
                                         system=(beta.isos, rhs))


@pytest.mark.parametrize("brute", [False, True], ids=["pairs", "brute"])
def test_correspond_takes_no_restriction_for_all_of_s(monkeypatch, capsys, brute):
    """The fixed ring of all of S is A^beta, which the engine already holds."""
    sizes = []
    _recording(monkeypatch, correspondence, "restrict_action",
               lambda beta, T: sizes.append((len(T.members), beta.S.n)))
    for path in sorted(INSTANCES.glob("*.sgi")):
        _run(capsys, "correspond", str(path), *(["--brute-force-subalgebras"] if brute else []))
    assert sizes and all(k < n for k, n in sizes)


def test_tensor_with_n_is_m_builds_one_relation_lattice(monkeypatch):
    A = rg.FiniteRing([rg.Atom.gf(2, 2), rg.Atom.zmod(2, 2), rg.Atom.gf(2, 2)])
    full = rg.Subalgebra.full(A)
    R = rg.Subalgebra.span_of_elements(A, [A.one()]).closure_under_mul()
    M = R.adjoin(A.element([(0, 1), 1, (1, 0)]).vec())
    calls = []
    _recording(monkeypatch, rg, "_span_relation_lattice", lambda sub: calls.append(sub))
    rg.TensorPresentation(full, full, R)
    assert calls == [full]
    calls.clear()
    rg.TensorPresentation(M, full, R)
    assert calls == [M, full]


def test_full_subalgebra_is_never_checked_for_closure(monkeypatch, capsys):
    """Subalgebra.full is a unital subalgebra by construction."""
    fulls, checked = [], []
    original_full = rg.Subalgebra.full

    def full(ring):
        sub = original_full(ring)
        fulls.append(sub)
        return sub

    # both lists keep their subalgebras alive, so no two of them share an id
    monkeypatch.setattr(rg.Subalgebra, "full", staticmethod(full))
    _recording(monkeypatch, rg.Subalgebra, "closed_under_mul", lambda self: checked.append(self))
    for path in sorted(INSTANCES.glob("*.sgi")):
        for command in ("galois", "correspond"):
            _run(capsys, command, str(path))
    assert fulls and checked
    assert not {id(f) for f in fulls} & {id(c) for c in checked}
    assert all(f.is_subalgebra() for f in fulls)


def test_algebra_generators_multiply_each_new_generator_against_the_span(monkeypatch):
    """Adjoining g to a closed span multiplies g by the span's generators, and
    gives the closure of the whole generator list."""
    A = rg.FiniteRing([rg.Atom.gf(2, 2)] * 3)
    R = rg.Subalgebra.span_of_elements(A, [A.one()]).closure_under_mul()
    g = A.element([(0, 1), (1, 1), (0, 0)]).vec()
    products = []
    _recording(monkeypatch, rg.FiniteRing, "mul_vec", lambda self, u, v: products.append((u, v)))
    grown = R.adjoin(g)
    first_round = products[:len(R.gen_vectors) + 1]
    assert all(g in pair for pair in first_round)
    monkeypatch.undo()
    assert grown == rg.Subalgebra(A, list(R.gen_vectors) + [g]).closure_under_mul()
    chosen = rg.Subalgebra.full(A).algebra_generators(R)
    assert rg.Subalgebra(A, list(R.gen_vectors) + chosen).closure_under_mul() == rg.Subalgebra.full(A)


PRODUCT_RINGS = [
    [rg.Atom.gf(2, 2), rg.Atom.zmod(3), rg.Atom.gf(3, 2)],
    [rg.Atom.zmod(2, 3), rg.Atom.zmod(2, 3)],
    [rg.Atom.gf(2, 3), rg.Atom.zmod(5), rg.Atom.gf(2, 3), rg.Atom.zmod(2)],
]


@pytest.mark.parametrize("atoms", PRODUCT_RINGS, ids=["gf4xz3xgf9", "z8^2", "gf8xz5xgf8xz2"])
def test_product_table_hit_returns_the_product_and_charges_alike(monkeypatch, atoms):
    A = rg.FiniteRing(atoms)
    n = len(A.atoms)
    rng = random.Random(n)
    pool = [A.from_vec([rng.randrange(m) for m in A.coord_moduli]) for _ in range(12)]
    atom_products = []
    _recording(monkeypatch, rg.Atom, "mul_coords", lambda *a: atom_products.append(a))
    for x in pool:
        for y in pool:
            with budget.limit(10 ** 6):
                first = A.mul_vec(x.vec(), y.vec())
                assert budget.spent() == n
                taken = len(atom_products)
                again = A.mul_vec(y.vec(), x.vec())  # the unordered pair: a hit
                assert budget.spent() == 2 * n and len(atom_products) == taken
            assert first == again == element_product(x, y).vec()
            with budget.limit(n - 1), pytest.raises(budget.BudgetExceeded) as exc:
                A.mul_vec(x.vec(), y.vec())
            assert (exc.value.quantity, exc.value.spent) == ("ring_products", n)
    assert len(A._products) == len({frozenset((x.vec(), y.vec())) for x in pool for y in pool})


def test_rings_with_equal_atoms_share_no_table():
    atoms = [rg.Atom.gf(2, 2), rg.Atom.zmod(3)]
    A, B = rg.FiniteRing(atoms), rg.FiniteRing(atoms)
    assert A == B and A._products is not B._products
    A.mul_vec(A.one().vec(), A.one().vec())
    assert len(A._products) == 1 and not B._products


def test_application_plan_matches_iso_matrix_and_polynomials():
    """apply_vec by the plan equals the iso matrix reduced mod the moduli and the
    polynomial Frobenius, on twisted GF isos and partial domains, and the plan
    reads only domain coordinates."""
    rng = random.Random(7)
    twisted = partial = 0
    for _ in range(200):
        A = random_ring(rng, max_atoms=4)
        iso = random_structured_iso(rng, A)
        twisted += any(iso.twist.values())
        partial += len(iso.matching) < len(A.atoms)
        domain = {c for i in iso.matching for c in range(*A.atom_span(i))}
        assert {c for c, _ in iso.application_plan()} <= domain
        mat = iso.matrix()
        for _ in range(5):
            vec = tuple(rng.randrange(m) for m in A.coord_moduli)
            want = tuple(x % m for x, m in zip(mat.apply(vec), A.coord_moduli))
            assert iso.apply_vec(vec) == want
            x = A.from_vec(vec).mask(iso.dom_support)
            assert iso.apply_vec(x.vec()) == iso_apply_by_polynomials(iso, x).vec()
    assert twisted > 20 and partial > 20


@pytest.mark.parametrize("args,adjoins,weak", [
    (["correspond", "s7_f9cubed.sgi", "--brute-force-subalgebras"], 6, 1),
    (["zero", "b2_f3f3.sgi", "--brute-force-subalgebras"], 2, 0),
], ids=["correspond", "zero"])
def test_brute_force_scan_judges_each_subalgebra_once(monkeypatch, capsys, args, adjoins, weak):
    """The scan reuses the pair loop's verdict on each fixed algebra, and
    asks the free-part rule only of the subalgebras it finds beta-strong (on
    s7_f9cubed it lists one that is not); the closures the whole command
    takes are pinned (44 and 5 when every coset was closed, 9 and 3 while
    separability chose algebra generators by adjoining them)."""
    separable, strong, adjoined = collections.Counter(), {}, []
    real_strong = correspondence.is_beta_strong

    def recording_strong(beta, B, s_b=None):
        verdict = real_strong(beta, B, s_b)
        strong[B] = verdict[0]
        return verdict

    monkeypatch.setattr(correspondence, "is_beta_strong", recording_strong)
    _recording(monkeypatch, correspondence, "separability_violation",
               lambda beta, B: separable.update([B]))
    _recording(monkeypatch, rg.Subalgebra, "adjoin", lambda sub, vec: adjoined.append(vec))
    assert _run(capsys, args[0], str(INSTANCES / args[1]), *args[2:]) == 0
    assert separable and max(separable.values()) == 1
    assert not any(strong.get(B) is False for B in separable)
    assert list(strong.values()).count(False) == weak
    assert len(adjoined) == adjoins


@pytest.mark.parametrize("instance,checks", [("c2_swap.sgi", 1), ("s7_f9cubed.sgi", 3)])
def test_separability_checks_r_inside_b_once_per_object_pair(monkeypatch, instance, checks):
    """is_separable(A, A^beta) checks R <= B once per pair of objects: on one
    orbit the tensor's constructor checks B and R themselves, and on two
    orbits the whole pair is checked, then each orbit's block pair (3 and 4
    checks when is_separable and orbit_tensors each checked the whole pair).
    An R outside B still raises is_separable's own error."""
    from semigalois.instance import parse_instance
    beta = parse_instance(INSTANCES / instance).action
    full, inv = rg.Subalgebra.full(beta.A), actions.invariant_ring(beta)
    pairs = []
    _recording(monkeypatch, rg.Subalgebra, "contains", lambda big, sub: pairs.append((big, sub)))
    assert galois.is_separable(full, inv, blocks=beta.orbits) is not None
    assert len(pairs) == checks
    assert len({(id(big), id(sub)) for big, sub in pairs}) == checks
    assert pairs[0] == (full, inv)
    with pytest.raises(rg.NotSubring, match="separability needs R inside B"):
        galois.is_separable(inv, full, blocks=beta.orbits)


@pytest.mark.parametrize("brute", [False, True], ids=["pairs", "brute"])
@pytest.mark.parametrize("instance,checks", [("c2_swap.sgi", 1), ("s7_f9cubed.sgi", 2)])
def test_correspond_checks_each_fixed_algebra_over_the_invariants_once(monkeypatch, capsys,
                                                                       instance, checks, brute):
    """fixed_subalgebra checks A^{beta|T} >= A^beta once per T other than S,
    and nothing checks it again: the free-part rule builds no tensor, so no
    tensor checks its factors (2 and 9 checks when separability built
    orbit tensors, 3 and 11 when is_separable checked the pair as well)."""
    pairs = []
    _recording(monkeypatch, rg.Subalgebra, "contains", lambda big, sub: pairs.append((big, sub)))
    flags = ["--brute-force-subalgebras"] if brute else []
    assert _run(capsys, "correspond", str(INSTANCES / instance), *flags) == 0
    assert len(pairs) == checks
    assert len({(id(big), id(sub)) for big, sub in pairs}) == checks


@pytest.mark.parametrize("instance,checks", [("c2_swap.sgi", 1), ("s7_f9cubed.sgi", 3)])
def test_galois_checks_the_invariants_inside_a_once_per_object_pair(monkeypatch, capsys,
                                                                     instance, checks):
    """`galois` checks A^beta <= A while it builds A's orbit tensors, which mark
    A^beta as A's known base, so the separability criterion does not check
    the pair again (2 and 4 checks when it did).  On s7_f9cubed each orbit's
    block pair is checked too."""
    pairs = []
    _recording(monkeypatch, rg.Subalgebra, "contains", lambda big, sub: pairs.append((big, sub)))
    assert _run(capsys, "galois", str(INSTANCES / instance)) == 0
    assert len(pairs) == checks
    assert len({(id(big), id(sub)) for big, sub in pairs}) == checks


@pytest.mark.parametrize("args", [["correspond"], ["correspond", "--brute-force-subalgebras"],
                                  ["zero"]], ids=" ".join)
def test_correspondences_build_no_tensor(monkeypatch, capsys, args):
    """correspond (both routes) and zero decide separability by the free-part
    rule, so no command builds a TensorPresentation on any shipped instance
    (2 on c2_swap, 6 on s7_f9cubed and 2 on b2_f3f3 when each solved a
    separability system), and each passes on some."""
    built, codes = [], []
    _recording(monkeypatch, rg.TensorPresentation, "__init__", lambda *a: built.append(a))
    for path in sorted(INSTANCES.glob("*.sgi")):
        codes.append(_run(capsys, args[0], str(path), *args[1:]))
    assert built == [] and 0 in codes


def test_a_fixed_algebra_outside_the_invariants_raises_as_before(monkeypatch):
    """A fixed algebra that misses A^beta (here the span of 1, planted for
    every restriction) still stops correspond with fixed_subalgebra's error."""
    from semigalois.instance import parse_instance
    beta = parse_instance(INSTANCES / "s7_f9cubed.sgi").action
    real = correspondence.invariant_ring
    monkeypatch.setattr(correspondence, "invariant_ring", lambda b: real(b) if b is beta
                        else rg.Subalgebra(b.A, [b.A.one_vec]))
    with pytest.raises(AssertionError, match="fixed ring must contain the full invariants"):
        correspondence.verify_e_unitary_correspondence(beta)
