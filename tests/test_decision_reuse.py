"""Each decision derives every fact, product, iso image and linear system once.

Call counts around one in-process `cli.main` on the shipped instances (the
facts each semigroup and action remembers, and the solves), the per-ring
product table (a lookup returns the product and is charged like one), and
the per-iso application plan against the polynomial Frobenius, as a
matrix and element by element.
"""

import collections
import random
import sys
from pathlib import Path

import pytest

from fixtures import collapsing_semilattice_fixture, cyclic_shift, derivations
from semigalois import actions, budget, cli, correspondence, galois, semigroups, zerocase
from semigalois import rings as rg
from semigalois.corpus import b2_swap_fixture, f9_cubed_fixture, random_ring, random_structured_iso
from oracles import element_product, iso_apply_by_polynomials, iso_matrix_by_polynomials

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


@pytest.mark.parametrize("instance,solves", [("c2_swap.sgi", 1), ("s7_f9cubed.sgi", 1)])
def test_galois_solves_each_coordinate_system_once(monkeypatch, capsys, instance, solves):
    """On a group the partial-action system is the Galois system and reuses its
    solution; on the S7 monoid it differs, and beta's coordinates are checked
    on it instead of solving it (2 solves when it was solved apart)."""
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


ZERO_FACTS = ["is_0_e_unitary", "is_categorical_at_zero", "is_primitive", "tau_partition"]


@pytest.mark.parametrize("args", [["zero"], ["zero", "--brute-force-subalgebras"], ["analyze"]])
def test_zero_facts_are_derived_once_per_semigroup(monkeypatch, capsys, args):
    """Each zero-case fact is computed at most once per semigroup in one
    cli.main on b2_f3f3 (S, and P' of the tau-class joins, which zero also asks
    about), and the command reads them many times."""
    asked = collections.Counter()
    facts = [getattr(zerocase, name) for name in ZERO_FACTS]
    for name in ZERO_FACTS:
        _recording(monkeypatch, zerocase, name, lambda S, name=name: asked.update([name]))
    with derivations(*facts) as computed:
        assert _run(capsys, args[0], str(INSTANCES / "b2_f3f3.sgi"), *args[1:]) == 0
    assert computed and max(computed.values()) == 1
    assert {name for name, _ in computed} == set(ZERO_FACTS)
    if args[0] == "zero":
        assert sum(asked.values()) > len(computed)


# What each command derives about S (the first two), about beta (the next
# six, and the four kept per subalgebra B or per T), and about the rings,
# atoms, isos, blocks, groups, subalgebras and tensors a decision builds
# (the keyed ones per product, indicator, twist, iso or b).
FACTS = [semigroups.sigma_partition, semigroups.is_e_unitary,
         actions.is_injective, actions.invariant_ring, actions.induce_partial_group_action,
         actions.Action.orbits.fget, galois._galois_system, galois._full_tensor,
         actions.separability_violation, galois.compute_S_B, galois.is_beta_strong,
         correspondence.fixed_subalgebra,
         rg.FiniteRing.presentation.fget, rg.FiniteRing.basis_vectors, rg.FiniteRing._product,
         rg.FiniteRing._indicator, rg.Atom.frobenius_cols, rg.StructuredIso.dom_support.fget,
         rg.StructuredIso.im_support.fget, rg.StructuredIso.application_plan, rg.Block.iso,
         correspondence._unit_generators,
         rg.Subalgebra.__hash__, rg.Subalgebra.is_subalgebra, rg.TensorPresentation.free_pairs.fget,
         rg.TensorPresentation._free_positions.fget, rg.TensorPresentation._on_free_pairs.fget,
         rg.TensorPresentation.free_lattice.fget, rg.TensorPresentation.mult_map_vec,
         rg.TensorPresentation.mult_matrix]
COMMANDS = [["galois"], ["correspond"], ["correspond", "--brute-force-subalgebras"],
            ["analyze"], ["zero"]]


@pytest.mark.parametrize("args", COMMANDS, ids=" ".join)
def test_facts_are_derived_once_per_semigroup_and_action(capsys, args):
    """In one cli.main on each shipped instance, sigma and E-unitarity are
    derived at most once per semigroup object; injectivity, A^beta, the
    induced alpha, the orbits, the Galois system and A (x)_{A^beta} A at
    most once per action object, and the free-part rule, S_B and
    strongness once per action and subalgebra, A^{beta|T} once per action
    and T; the additive group and the unit vectors once per ring, and each
    product and indicator once per ring and argument; the Frobenius columns
    once per atom and twist; the supports and the plan once per iso; the
    restriction of an iso once per block and iso, and the unit generators
    once per block and A^beta; the hash and the subalgebra check once per
    `Subalgebra`; and the free-pair presentation and multiplication map once
    per tensor, and a multiplication matrix once per tensor and b."""
    seen = set()
    with derivations(*FACTS) as derived:
        for path in sorted(INSTANCES.glob("*.sgi")):
            derived.clear()
            _run(capsys, args[0], str(path), *args[1:])
            assert all(count == 1 for count in derived.values()), (path.name, derived)
            seen |= {name for name, *_ in derived}
    assert seen  # every command derives some fact on some instance
    if args == ["galois"]:  # A keys S_B, strongness and the free-part rule, so it is hashed
        assert seen == {fact.__name__ for fact in FACTS} - {"fixed_subalgebra", "_unit_generators"}
    if args[0] == "correspond":
        assert {"__hash__", "compute_S_B", "is_beta_strong", "separability_violation",
                "fixed_subalgebra"} <= seen
    assert ("_unit_generators" in seen) == (args[-1] == "--brute-force-subalgebras")


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
    assert "induce_partial_group_action" not in beta.facts and "sigma_partition" not in S.facts
    beta = f9_cubed_fixture()
    for _ in range(2):
        with budget.limit(1), pytest.raises(budget.BudgetExceeded):
            actions.invariant_ring(beta)
    assert "invariant_ring" not in beta.facts
    assert actions.invariant_ring(beta) is actions.invariant_ring(beta)
    assert actions.invariant_ring(beta).order == 27
    ones = semigroups.SubSemigroup(beta.S, frozenset({0}))  # misses the other idempotents
    atom = rg.Atom.zmod(3)
    for _ in range(2):
        with pytest.raises(actions.NotFullSub):
            correspondence.fixed_subalgebra(beta, ones)
        with pytest.raises(rg.RingError, match="admits no twist"):
            atom.frobenius_cols(1)
    assert ("fixed_subalgebra", ones) not in beta.facts and not atom.facts


def test_a_keyed_fact_is_kept_per_argument_under_its_name():
    """A fact with arguments is kept under (name, *args), so equal arguments
    share one value; `idempotent_vec` takes any iterable of atoms and keys
    its indicator by their frozenset."""
    A = rg.FiniteRing([rg.Atom.gf(2, 2), rg.Atom.zmod(3)])
    e = A.idempotent_vec({1})
    assert A.idempotent_vec([1]) is e and A.idempotent_vec(frozenset({1})) is e
    assert A.facts == {("_indicator", frozenset({1})): e} and e == (0, 0, 1)
    cols = A.atoms[0].frobenius_cols(1)
    assert A.atoms[0].facts == {("frobenius_cols", 1): cols} and cols == ((1, 0), (1, 1))


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
    """The fixed ring of all of S is A^beta, which the engine already holds:
    a fixed-point solve is taken only for member sets smaller than S."""
    from semigalois.instance import parse_instance
    sizes = []
    _recording(monkeypatch, correspondence, "fixed_ring", lambda A, isos: sizes.append(len(isos)))
    for path in sorted(INSTANCES.glob("*.sgi")):
        n, start = parse_instance(path).S.n, len(sizes)
        _run(capsys, "correspond", str(path), *(["--brute-force-subalgebras"] if brute else []))
        assert all(k < n for k in sizes[start:])
    assert sizes


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
    R = rg.Subalgebra(A, [A.one_vec]).closure_under_mul()
    g = A.element([(0, 1), (1, 1), (0, 0)]).vec()
    products = []
    _recording(monkeypatch, rg.FiniteRing, "mul_vec", lambda self, u, v: products.append((u, v)))
    grown = R.adjoin(g)
    first_round = products[:len(R.gen_vectors) + 1]
    assert all(g in pair for pair in first_round)
    monkeypatch.undo()
    assert grown == rg.Subalgebra(A, list(R.gen_vectors) + [g]).closure_under_mul()
    chosen = rg.TensorPresentation(A, R).algebra_generators()
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
    kept = [key for key in A.facts if key[0] == "_product"]
    assert len(kept) == len({frozenset((x.vec(), y.vec())) for x in pool for y in pool})


def test_galois_reads_products_with_unit_vectors_and_takes_none(monkeypatch, capsys):
    """`galois` on s7_f9cubed multiplies a unit vector only through
    `FiniteRing.unit_times`: no `mul_vec` call has the coordinate solve, psi,
    `mult_matrix` or the multiplication map on its stack (43 calls when
    they kept their own products).  `verify_coordinates` re-checks
    the solve with `mul_vec`, apart from the read the solve used."""
    readers = {galois._solve_coordinates.__code__, galois.psi_check.__code__,
               rg.TensorPresentation.mult_matrix.__wrapped__.__code__,
               rg.TensorPresentation.mult_map_vec.__wrapped__.__code__}
    inside, verifying, reads = [], [], []
    original = rg.FiniteRing.mul_vec

    def mul_vec(self, u, v):
        frame = sys._getframe(1)
        verifying.append(frame.f_code is galois.verify_coordinates.__code__)
        while frame is not None:
            if frame.f_code in readers:
                inside.append(frame.f_code.co_name)
            frame = frame.f_back
        return original(self, u, v)

    monkeypatch.setattr(rg.FiniteRing, "mul_vec", mul_vec)
    _recording(monkeypatch, rg.FiniteRing, "unit_times", lambda *a: reads.append(a))
    assert _run(capsys, "galois", str(INSTANCES / "s7_f9cubed.sgi")) == 0
    assert inside == []
    assert reads and any(verifying)


def test_rings_with_equal_atoms_share_no_table():
    atoms = [rg.Atom.gf(2, 2), rg.Atom.zmod(3)]
    A, B = rg.FiniteRing(atoms), rg.FiniteRing(atoms)
    assert A == B and A.facts is not B.facts
    A.mul_vec(A.one_vec, A.one_vec)
    assert list(A.facts) == [("_product", A.one_vec, A.one_vec)] and not B.facts


def test_application_plan_matches_iso_matrix_and_polynomials():
    """apply_vec by the plan equals the iso's matrix from the polynomial
    Frobenius, reduced mod the moduli, and the polynomial Frobenius on masked
    elements, on twisted GF isos and partial domains, and the plan reads only
    domain coordinates."""
    rng = random.Random(7)
    twisted = partial = 0
    for _ in range(200):
        A = random_ring(rng, max_atoms=4)
        iso = random_structured_iso(rng, A)
        twisted += any(iso.twist.values())
        partial += len(iso.matching) < len(A.atoms)
        domain = {c for i in iso.matching for c in range(*A.atom_span(i))}
        assert {c for c, _ in iso.application_plan()} <= domain
        mat = iso_matrix_by_polynomials(iso)
        for _ in range(5):
            vec = tuple(rng.randrange(m) for m in A.coord_moduli)
            want = tuple(x % m for x, m in zip(mat.apply(vec), A.coord_moduli))
            assert iso.apply_vec(vec) == want
            x = A.from_vec(vec).mask(iso.dom_support)
            assert iso.apply_vec(x.vec()) == iso_apply_by_polynomials(iso, x).vec()
    assert twisted > 20 and partial > 20


def _c3_on_z8_cubed(directory):
    """C3 rotating (Z/8)^3, written as an instance file in `directory`."""
    from semigalois.instance import action_to_instance_text
    path = directory / "c3_z8cubed.sgi"
    path.write_text(action_to_instance_text(cyclic_shift(rg.Atom.zmod(2, 3), 3)))
    return path


@pytest.mark.parametrize("args,adjoins,weak,split", [
    (["correspond", "s7_f9cubed.sgi", "--brute-force-subalgebras"], 6, 1, 0),
    (["zero", "b2_f3f3.sgi", "--brute-force-subalgebras"], 2, 0, 0),
    (["correspond", None, "--brute-force-subalgebras"], 55, 3, 20),
], ids=["correspond", "zero", "correspond_c3_z8cubed"])
def test_brute_force_scan_judges_each_subalgebra_once(monkeypatch, capsys, tmp_path,
                                                      args, adjoins, weak, split):
    """The scan reuses the pair loop's verdict on each fixed algebra, asks
    the free-part rule of any other subalgebra first, and asks strongness
    only of the separable ones: on s7_f9cubed (GF(9) atoms, all separable)
    it lists one that is not beta-strong, and on C3 over (Z/8)^3, 20 of the
    25 subalgebras are not separable and are never asked.  The closures the
    whole command takes are pinned (44 and 5 when every coset was closed, 9
    and 3 while separability chose algebra generators by adjoining them; 148
    on C3 over (Z/8)^3 while cosets of every order were closed)."""
    separable, strong, adjoined = {}, {}, []
    real_rule, real_strong = correspondence.separability_violation, correspondence.is_beta_strong

    def recording_rule(beta, B):
        separable[B] = real_rule(beta, B)
        return separable[B]

    def recording_strong(beta, B):
        strong[B] = real_strong(beta, B)
        return strong[B]

    monkeypatch.setattr(correspondence, "separability_violation", recording_rule)
    monkeypatch.setattr(correspondence, "is_beta_strong", recording_strong)
    _recording(monkeypatch, rg.Subalgebra, "adjoin", lambda sub, vec: adjoined.append(vec))
    path = INSTANCES / args[1] if args[1] else _c3_on_z8_cubed(tmp_path)
    with derivations(actions.separability_violation, galois.is_beta_strong) as asked:
        assert _run(capsys, args[0], str(path), *args[2:]) == 0
    assert max(asked.values()) == 1
    assert len(asked) == len(separable) + len(strong)
    assert strong and all(B in separable and separable[B] is None for B in strong)
    assert [v[0] for v in strong.values()].count(False) == weak
    assert [v is None for v in separable.values()].count(False) == split
    assert len(adjoined) == adjoins


@pytest.mark.parametrize("instance,checks", [("c2_swap.sgi", 1), ("s7_f9cubed.sgi", 2)])
def test_separability_checks_r_inside_b_once_per_object_pair(monkeypatch, instance, checks):
    """The library's route, galois.is_separable(galois._full_tensor(beta)),
    picks the algebra generators of each orbit's block ring over its R once,
    and checks no containment: R lies in the block ring by construction
    (1 and 2 `contains` checks while each orbit tensor checked its factors).
    An R that is not a unital subalgebra still raises the constructor's
    error."""
    from semigalois.instance import parse_instance
    beta = parse_instance(INSTANCES / instance)
    pairs, picks = [], []
    _recording(monkeypatch, rg.Subalgebra, "contains", lambda big, sub: pairs.append((big, sub)))
    _recording(monkeypatch, rg.TensorPresentation, "algebra_generators", picks.append)
    tensors = galois._full_tensor(beta)
    assert galois.is_separable(tensors) is not None
    assert pairs == []
    assert len(picks) == checks
    assert picks == [tensor for _, tensor in tensors]
    block, _ = tensors[0]
    with pytest.raises(rg.NotSubring, match="unital subalgebra"):
        rg.TensorPresentation(block.ring, rg.Subalgebra(block.ring, [block.ring.basis_vectors()[0]]))


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


@pytest.mark.parametrize("instance,checks", [("c2_swap.sgi", 1), ("s7_f9cubed.sgi", 2)])
def test_galois_checks_the_invariants_inside_a_once_per_object_pair(monkeypatch, capsys,
                                                                     instance, checks):
    """`galois` needs no check of A^beta e_O <= A e_O: the orbit tensor of O
    is built on the block ring, which holds A^beta e_O by construction, and
    the separability solve picks algebra generators once per orbit (1 and 2
    `contains` checks while each orbit tensor checked its factors, 2 and 4
    when the separability criterion checked the whole pair as well)."""
    pairs, picks = [], []
    _recording(monkeypatch, rg.Subalgebra, "contains", lambda big, sub: pairs.append((big, sub)))
    _recording(monkeypatch, rg.TensorPresentation, "algebra_generators", picks.append)
    assert _run(capsys, "galois", str(INSTANCES / instance)) == 0
    assert pairs == []
    assert len(picks) == checks
    assert len(set(map(id, picks))) == checks


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
    """A fixed algebra that misses A^beta (here the span of 1, planted as the
    fixed ring of every T other than S) still stops correspond with
    fixed_subalgebra's error."""
    from semigalois.instance import parse_instance
    beta = parse_instance(INSTANCES / "s7_f9cubed.sgi")
    monkeypatch.setattr(correspondence, "fixed_ring", lambda A, isos: rg.Subalgebra(A, [A.one_vec]))
    with pytest.raises(AssertionError, match="fixed ring must contain the full invariants"):
        correspondence.verify_e_unitary_correspondence(beta)
