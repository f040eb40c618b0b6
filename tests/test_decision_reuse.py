"""Each decision derives every fact, iso image and linear system once.

Call counts around one in-process `cli.main` on the shipped instances (the
facts each semigroup and action remembers, and the solves), and the per-iso
application plan against the polynomial Frobenius, as a matrix and element
by element.
"""

import collections
import random
import sys
from pathlib import Path

import pytest

from fixtures import collapsing_semilattice_fixture, cyclic_shift, derivations
from semigalois import actions, budget, cli, correspondence, galois, linalg, semigroups, zerocase
from semigalois import rings as rg
from semigalois.corpus import b2_swap_fixture, f9_cubed_fixture, random_ring, random_structured_iso
from oracles import (algebra_generators_by_adjoining, iso_apply_by_polynomials,
                     iso_matrix_by_polynomials)

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


@pytest.mark.parametrize("instance,checked", [("c2_swap.sgi", 1), ("s7_f9cubed.sgi", 2)])
def test_galois_verifies_each_coordinate_system_once(monkeypatch, capsys, instance, checked):
    """No coordinate system is solved: the candidate is checked once on each
    distinct system.  On a group the partial-action system is the Galois
    system and reuses its verdict (1 check); on the S7 monoid it differs,
    and the candidate is checked on beta's system and on alpha's (2)."""
    actions_checked = []
    _recording(monkeypatch, galois, "verify_coordinates", lambda a, c: actions_checked.append(a))
    assert _run(capsys, "galois", str(INSTANCES / instance)) == 0
    assert len(actions_checked) == checked
    assert len({id(a) for a in actions_checked}) == checked  # beta, then alpha


def test_galois_and_zero_join_each_lower_bound_class_once(monkeypatch, capsys):
    """alpha and psi (`galois`, over S/sigma) and P' (`zero`, over S/tau)
    read one remembered join of each class (`actions.class_joins`): on the
    S7 monoid, where alpha and psi are both built, `galois` derives the
    joins once and takes one `join_sum` per sigma-class (two derivations
    when each joined its own); on B2, `zero` takes one per tau-class, the
    zero's included."""
    builder, sums = actions.class_joins.__wrapped__.__code__, []

    def record(isos):
        frame = sys._getframe(2)
        while frame is not None and frame.f_code is not builder:
            frame = frame.f_back
        sums.append(frame is not None)

    _recording(monkeypatch, actions.isopu, "join_sum", record)
    for command, instance, classes in [("galois", "s7_f9cubed.sgi", 2), ("zero", "b2_f3f3.sgi", 5)]:
        sums.clear()
        with derivations(actions.class_joins) as computed:
            assert _run(capsys, command, str(INSTANCES / instance)) == 0
        assert list(computed.values()) == [1]
        assert sums.count(True) == classes


@pytest.mark.parametrize("args", [["correspond"], ["correspond", "--brute-force-subalgebras"],
                                  ["zero"]], ids=" ".join)
def test_correspondences_decide_galois_without_a_coordinate_solve(monkeypatch, capsys, args):
    """correspond (both routes) and zero take their "A is beta-Galois"
    precondition from the fixed-atom rule, so no command builds or checks
    coordinates on any shipped instance, and each passes on some."""
    calls, codes = [], []
    for name in ("_trace_dual_pairs", "verify_coordinates"):
        _recording(monkeypatch, galois, name, lambda *a: calls.append(a))
    for path in sorted(INSTANCES.glob("*.sgi")):
        codes.append(_run(capsys, args[0], str(path), *args[1:]))
    assert calls == [] and 0 in codes


def test_galois_takes_no_solve(monkeypatch, capsys):
    """`galois` solves no linear system on any shipped instance: the
    coordinates and the separability idempotent are the trace-dual pairs,
    checked, and psi is an image lattice (one `solve_cols` per orbit while
    the separability idempotent was solved for)."""
    calls, codes = [], []
    for name, module in list(sys.modules.items()):
        if name.startswith("semigalois") and hasattr(module, "solve_cols"):
            _recording(monkeypatch, module, "solve_cols", lambda *a: calls.append(a))
    for path in sorted(INSTANCES.glob("*.sgi")):
        codes.append(_run(capsys, "galois", str(path)))
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
# seven, and the five kept per subalgebra B or per T), and about the rings,
# atoms, isos, blocks, groups, subalgebras, presentations, psi blocks and
# separability blocks a decision builds (the keyed ones per indicator, twist,
# atom pair, twists or atom).
FACTS = [semigroups.sigma_partition, semigroups.is_e_unitary,
         actions.is_injective, actions.invariant_ring, actions.induce_partial_group_action,
         actions.class_joins, actions.Action.orbits.fget, galois._galois_system, galois._full_tensor,
         actions.separability_violation, galois._moved_atoms, galois.compute_S_B,
         galois.is_beta_strong,
         correspondence.fixed_subalgebra,
         rg.FiniteRing.presentation.fget, rg.FiniteRing.basis_vectors, galois._trace_dual_pairs,
         rg.FiniteRing._indicator, rg.Atom.frobenius_cols, rg.Atom.trace_dual,
         rg.StructuredIso.dom_support.fget,
         rg.StructuredIso.im_support.fget, rg.StructuredIso.application_plan,
         correspondence._unit_generators,
         rg.Subalgebra.__hash__, rg.Subalgebra.is_subalgebra, rg.Atom.tensor_block,
         linalg.AbelianPresentation.lattice.fget, galois._psi_block, galois._separable_block]
COMMANDS = [["galois"], ["correspond"], ["correspond", "--brute-force-subalgebras"],
            ["analyze"], ["zero"]]


@pytest.mark.parametrize("args", COMMANDS, ids=" ".join)
def test_facts_are_derived_once_per_semigroup_and_action(capsys, args):
    """In one cli.main on each shipped instance, sigma and E-unitarity are
    derived at most once per semigroup object; injectivity, A^beta, the
    induced alpha, the class joins, the orbits, the Galois system and A (x)_{A^beta} A at
    most once per action object, and the free-part rule, the moved atoms,
    S_B and strongness once per action and subalgebra, A^{beta|T} once per action
    and T; the additive group, the unit vectors and the trace-dual pairs
    once per ring, and each
    indicator once per ring and argument; the Frobenius columns once per
    atom and twist, and the trace dual once per atom; the supports and the
    plan once per iso; the unit generators
    once per block and A^beta; the hash and the subalgebra check once per
    `Subalgebra`; and each atom-pair tensor block once per atom, other
    atom and components of R, each presentation's canonical lattice once,
    psi on a tensor block once per atom and twists, and the separability
    check on a diagonal tensor block once per atom."""
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
    its indicator by their frozenset.  A ring with equal atoms keeps its own."""
    atoms = [rg.Atom.gf(2, 2), rg.Atom.zmod(3)]
    A, B = rg.FiniteRing(atoms), rg.FiniteRing(atoms)
    e = A.idempotent_vec({1})
    assert A.idempotent_vec([1]) is e and A.idempotent_vec(frozenset({1})) is e
    assert A.facts == {("_indicator", frozenset({1})): e} and e == (0, 0, 1)
    assert A == B and not B.facts
    cols = A.atoms[0].frobenius_cols(1)
    assert A.atoms[0].facts == {("frobenius_cols", 1): cols} and cols == ((1, 0), (1, 1))


def test_verify_coordinates_takes_a_whole_system():
    """The system checked is the action's own, whole: on the S7 monoid the
    candidate passes beta's and alpha's, a pair planted wrong in one
    coordinate fails both, and x = y = 1 fails beta's."""
    beta = f9_cubed_fixture()
    alpha = actions.induce_partial_group_action(beta)
    assert galois._galois_system(alpha) != galois._galois_system(beta)
    coords = galois.solve_galois_coordinates(beta)
    assert galois.verify_coordinates(beta, coords) and galois.verify_coordinates(alpha, coords)
    (x, y), *rest = coords
    planted = [(x, beta.A.add_vec(y, x))] + rest
    assert not galois.verify_coordinates(beta, planted)
    assert not galois.verify_coordinates(alpha, planted)
    assert not galois.verify_coordinates(beta, [(beta.A.one_vec, beta.A.one_vec)])


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
    chosen = algebra_generators_by_adjoining(rg.Subalgebra.full(A), R)
    assert rg.Subalgebra(A, list(R.gen_vectors) + chosen).closure_under_mul() == rg.Subalgebra.full(A)


def test_galois_reads_products_with_unit_vectors_and_takes_none(monkeypatch, capsys):
    """`galois` on s7_f9cubed multiplies a unit vector only through an
    atom's own product: no `mul_vec` call has psi, the tensor blocks, the
    separability check or the coordinate check on its stack (43 calls when
    they kept their own products, and 2 per pair and iso while the
    coordinate check multiplied whole vectors).  `verify_coordinates` and
    `verify_separability_idempotent` multiply on single atoms
    (`Atom.mul_coords`)."""
    verifiers = {galois.verify_separability_idempotent.__code__, galois.verify_coordinates.__code__}
    readers = {galois.psi_check.__code__, rg.Atom.tensor_block.__wrapped__.__code__, *verifiers}
    inside, verifying = [], []
    original = rg.FiniteRing.mul_vec

    def mul_vec(self, u, v):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code in readers:
                inside.append(frame.f_code.co_name)
            frame = frame.f_back
        return original(self, u, v)

    monkeypatch.setattr(rg.FiniteRing, "mul_vec", mul_vec)
    _recording(monkeypatch, rg.Atom, "mul_coords", lambda *a: verifying.append(sys._getframe(2).f_code))
    assert _run(capsys, "galois", str(INSTANCES / "s7_f9cubed.sgi")) == 0
    assert inside == []
    assert verifiers <= set(verifying)


def test_separability_check_multiplies_only_at_the_idempotents_entries(monkeypatch):
    """The separability check multiplies only the entries of e_a, grouped
    into its rows and columns, on one diagonal block per distinct block and
    atom.  On C32 rotating GF(4)^32 the 32 atoms are one object and their
    diagonal blocks one, so `is_separable` checks one block: r products for
    m(e_a) and 2r for each x^c, c < r, with r = 2, 10 `Atom.mul_coords` in
    all (480 `unit_times` products when the whole orbit tensor was checked,
    8 192 when the whole multiplication map and every mult_matrix(b) were
    built)."""
    beta = cyclic_shift(rg.Atom.gf(2, 2), 32)
    (_, tensor), = galois._full_tensor(beta)
    atom = beta.A.atoms[0]
    atom.trace_dual()  # the tensor and the trace dual are derived before the count
    checked, products = [], []
    _recording(monkeypatch, galois, "verify_separability_idempotent",
               lambda pair, atom, z: checked.append((pair, atom, z)))
    _recording(monkeypatch, rg.Atom, "mul_coords", lambda *a: products.append(a))
    assert galois.is_separable(beta) is True
    assert checked == [(tensor.blocks[0][0], atom, (1, 1, 1, 0))]
    assert len(products) == 2 + 2 * (2 * 2) == 10


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
    """The library's route, galois.is_separable(beta), checks no
    containment: R lies in each orbit's block ring by construction (1 and 2
    `contains` checks while each orbit tensor checked its factors).  It
    reads e off each atom, with no vector of A restricted (two
    `Block.restrict` calls per trace-dual pair while e was built on the
    orbit tensors), and checks it on the diagonal blocks of each orbit
    tensor, one per distinct block and atom.  An R that is not a unital
    subalgebra still raises the constructor's error."""
    from semigalois.instance import parse_instance
    beta = parse_instance(INSTANCES / instance)
    pairs, checked, restricted = [], [], []
    tensors = galois._full_tensor(beta)
    _recording(monkeypatch, rg.Subalgebra, "contains", lambda big, sub: pairs.append((big, sub)))
    _recording(monkeypatch, galois, "verify_separability_idempotent",
               lambda pair, atom, z: checked.append(pair))
    _recording(monkeypatch, rg.Block, "restrict", lambda block, vec: restricted.append(vec))
    assert galois.is_separable(beta) is True
    assert pairs == [] and restricted == []
    owner = {id(tensor.blocks[a][a]): o for o, (_, tensor) in enumerate(tensors)
             for a in range(len(tensor.blocks))}
    assert len({owner[id(pair)] for pair in checked}) == len(checked) == checks == len(tensors)
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
    the separability idempotent is checked once, each atom's part on the
    one diagonal block of its atom in its orbit tensor, equal blocks once
    (1 and 2 `contains` checks while each orbit tensor checked its factors,
    2 and 4 when the separability criterion checked the whole pair as
    well)."""
    pairs = []
    _recording(monkeypatch, rg.Subalgebra, "contains", lambda big, sub: pairs.append((big, sub)))
    with derivations(galois._separable_block) as checked:
        assert _run(capsys, "galois", str(INSTANCES / instance)) == 0
    assert pairs == []
    assert len(checked) == checks and max(checked.values()) == 1


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


def test_c4_on_gf4_reduces_one_tensor_block_and_one_psi_block(monkeypatch, capsys, tmp_path):
    """C4 rotating GF(4)^4 has one orbit of 16 atom pairs, alike in their
    atoms and in A^beta's components, and each joined by one class join,
    untwisted: the orbit tensor shares one block (`Atom.tensor_block`), so
    the tensor makes one `lattice_canon` call and psi one (`_psi_block`),
    where each made one over the whole orbit's 64 pairs and 32 rows."""
    from semigalois.instance import action_to_instance_text
    beta = cyclic_shift(rg.Atom.gf(2, 2), 4)
    assert len(beta.orbits) == 1
    [(_, tensor)] = galois._full_tensor(beta)
    assert len({id(pair) for line in tensor.blocks for pair in line}) == 1
    path = tmp_path / "c4_gf4.sgi"
    path.write_text(action_to_instance_text(beta))
    callers = {linalg.AbelianPresentation.lattice.fget.__wrapped__.__code__: "tensor",
               galois._psi_block.__wrapped__.__code__: "psi"}
    calls = []
    _recording(monkeypatch, linalg, "lattice_canon",
               lambda *a: calls.append(callers.get(sys._getframe(2).f_code)))
    monkeypatch.setattr(galois, "lattice_canon", linalg.lattice_canon)
    assert _run(capsys, "galois", str(path)) == 0
    assert calls.count("tensor") == calls.count("psi") == 1


@pytest.mark.parametrize("instance,distinct", [("c2_swap.sgi", 1), ("s7_f9cubed.sgi", 1),
                                               ("trace_gap_c2.sgi", 2)])
def test_galois_derives_the_trace_dual_once_per_distinct_atom(capsys, instance, distinct):
    """A ring keeps one object per distinct atom, so equal atoms share their
    facts: `galois` derives the trace-dual basis once per distinct atom
    (twice on the two Z/3 atoms of c2_swap and three times on the three
    GF(9) atoms of s7_f9cubed while each atom was its own object)."""
    with derivations(rg.Atom.trace_dual) as derived:
        _run(capsys, "galois", str(INSTANCES / instance))
    assert len(derived) == distinct and set(derived.values()) == {1}
