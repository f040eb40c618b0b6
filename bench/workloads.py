"""Instance generators and decision sets for the three benchmark workloads.

Every instance is built with the library's public constructors and written
with `action_to_instance_text`; the CLI then sees only the files.  Each
decision carries what its report must say:

* ladder and brute-scan rungs know their answer by construction (Galois,
  invariant order, number of correspondence objects, brute-force match);
* corpus instances are checked against `checks.fixed_point_count`, a
  brute-force count over the elements of A that never touches `linalg`.

The instance sets never change; the seed fixes the order of the decisions.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

from semigalois.actions import validate_action
from semigalois.corpus import corpus, s7_monoid
from semigalois.instance import action_to_instance_text
from semigalois.rings import Atom, FiniteRing, StructuredIso
from semigalois.semigroups import validate_table

# corpus-mixed: zero-free instances run `galois` and `correspond`, instances
# with a zero run `zero`: 200 + 100 instances, 500 decisions.
CORPUS_SEED = 2408
CORPUS_ZERO_FREE = 200
CORPUS_WITH_ZERO = 100
CORPUS_MAX_RING = 320
CORPUS_MAX_SEMIGROUP = 5


@dataclass(frozen=True)
class Rung:
    """One ladder instance with its answer known by construction."""

    name: str
    beta: object
    invariants_order: int
    objects: int


@dataclass
class Decision:
    """One CLI call: `semigalois <command> <path> --format json-lines <flags>`."""

    id: int
    name: str
    command: str
    path: str
    flags: tuple
    ring_order: int
    semigroup_order: int
    expect: dict = field(default_factory=dict)
    beta: object = None  # kept for the oracle on corpus instances

    @property
    def argv(self):
        return [self.command, self.path, "--format", "json-lines", *self.flags]

    @property
    def size_key(self):
        """Order used to pick a workload's largest instance; the name breaks
        ties, so that every seed picks the same one."""
        return (self.ring_order, self.semigroup_order, self.command, self.name)


# -- rung constructors ---------------------------------------------------------


def _tag(atom):
    return ("gf" if atom.kind == "gf" else "z") + str(atom.order)


def cyclic_group(n):
    names = ["1"] + [f"g{i}" for i in range(1, n)]
    return validate_table([[(i + j) % n for j in range(n)] for i in range(n)], names=names)


def n_subgroups_cyclic(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def c2_swap(atoms):
    """C2 swapping the two copies of each atom in atoms[0]^2 x atoms[1]^2 x ..."""
    A = FiniteRing([a for a in atoms for _ in range(2)])
    m = len(A.atoms)
    isos = [StructuredIso.identity_on(A, range(m)),
            StructuredIso(A, {i: i ^ 1 for i in range(m)}, {})]
    beta = validate_action(cyclic_group(2), A, isos)
    inv = 1
    for a in atoms:
        inv *= a.order
    label = "x".join(f"{_tag(a)}^2" for a in atoms)
    return Rung(f"c2_{label}", beta, inv, n_subgroups_cyclic(2))


def cn_cycle(atom, n):
    """C_n shifting n copies of one atom cyclically."""
    A = FiniteRing([atom] * n)
    isos = [StructuredIso(A, {i: (i + g) % n for i in range(n)}, {}) for g in range(n)]
    beta = validate_action(cyclic_group(n), A, isos)
    return Rung(f"c{n}_{_tag(atom)}^{n}", beta, atom.order, n_subgroups_cyclic(n))


def s7_action(atom):
    """The paper's 7-element inverse monoid on atom^3, twisting the middle atom.

    The relations force beta_t to be an involution, so the twist is the
    Frobenius power k/2 and the atom must be GF(p^k) with k even; on Z/p^k
    beta_t would be trivial and the action not injective.  The invariants
    are {(a, b, a) : b fixed by the twist}, of order |atom| * p^(k/2).
    """
    if atom.kind != "gf" or atom.k % 2:
        raise ValueError("the S7 rung needs GF(p^k) with k even")
    S = s7_monoid()
    A = FiniteRing([atom] * 3)
    tw = atom.k // 2
    by_name = {
        "1": StructuredIso.identity_on(A, {0, 1, 2}),
        "s": StructuredIso(A, {0: 2, 1: 1}, {1: tw}),
        "s'": StructuredIso(A, {2: 0, 1: 1}, {1: -tw}),
        "t": StructuredIso(A, {1: 1}, {1: tw}),
        "s*t": StructuredIso.identity_on(A, {1}),
        "s*s'": StructuredIso.identity_on(A, {1, 2}),
        "s'*s": StructuredIso.identity_on(A, {0, 1}),
    }
    beta = validate_action(S, A, [by_name[S.names[i]] for i in range(S.n)])
    return Rung(f"s7_{_tag(atom)}^3", beta, atom.order * atom.p ** tw, 3)


def ladder_rungs():
    """|A| from 16 to 1024; the GF rungs load tensors, the Z/p^k rungs stay cheap."""
    return [
        c2_swap([Atom.gf(2, 2)]), c2_swap([Atom.zmod(2, 2)]), c2_swap([Atom.zmod(3, 2)]),
        c2_swap([Atom.gf(2, 3)]), cn_cycle(Atom.gf(2, 2), 3), s7_action(Atom.gf(2, 2)),
        cn_cycle(Atom.zmod(2, 2), 4), c2_swap([Atom.gf(2, 4)]), cn_cycle(Atom.gf(2, 2), 4),
        cn_cycle(Atom.zmod(2, 3), 3), c2_swap([Atom.zmod(3, 3)]), c2_swap([Atom.gf(3, 3)]),
        cn_cycle(Atom.gf(3, 2), 3), cn_cycle(Atom.zmod(3, 2), 3), s7_action(Atom.gf(3, 2)),
        c2_swap([Atom.gf(2, 3), Atom.gf(2, 2)]),
    ]


def ladder_probe():
    """C2 on GF(16)^2 x GF(4)^2 (|A| = 4096): run once per run, outside the timing.

    Its expected outcome is a report; today both commands end in a
    `TooLarge` traceback, which counts as a failed decision.
    """
    return c2_swap([Atom.gf(2, 4), Atom.gf(2, 2)])


def brute_rungs():
    return [s7_action(Atom.gf(2, 2)), s7_action(Atom.gf(3, 2)), c2_swap([Atom.gf(2, 4)]),
            c2_swap([Atom.gf(3, 3)]), cn_cycle(Atom.zmod(2, 3), 3)]


# -- decision sets --------------------------------------------------------------


class _Writer:
    def __init__(self, outdir):
        self.outdir = outdir
        self.count = 0
        os.makedirs(outdir, exist_ok=True)

    def write(self, stem, beta, comment):
        path = os.path.join(self.outdir, stem + ".sgi")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(action_to_instance_text(beta, comment=comment))
        return path

    def decision(self, name, command, path, beta, flags=(), expect=None, keep_beta=False):
        self.count += 1
        return Decision(self.count - 1, name, command, path, tuple(flags), beta.A.size,
                        beta.S.n, dict(expect or {}), beta if keep_beta else None)

    def rungs(self, rungs, brute):
        out = []
        for rung in rungs:
            path = self.write(rung.name, rung.beta, rung.name)
            if not brute:
                out.append(self.decision(
                    rung.name, "galois", path, rung.beta,
                    expect={"galois": True, "invariants_order": rung.invariants_order}))
            expect = {"objects": rung.objects, "bijection": True}
            if brute:
                expect["brute_force_match"] = True
            out.append(self.decision(
                rung.name, "correspond", path, rung.beta,
                flags=("--brute-force-subalgebras",) if brute else (), expect=expect))
        return out


def _small(beta):
    return beta.A.size <= CORPUS_MAX_RING and beta.S.n <= CORPUS_MAX_SEMIGROUP


def build(workload, seed, outdir):
    """Write the workload's instance files; return (timed decisions, probe decisions)."""
    rng = random.Random(seed)
    writer = _Writer(outdir)
    if workload == "galois-ladder":
        rungs = ladder_rungs()
        rng.shuffle(rungs)
        return writer.rungs(rungs, brute=False), writer.rungs([ladder_probe()], brute=False)
    if workload == "brute-scan":
        rungs = brute_rungs()
        rng.shuffle(rungs)
        return writer.rungs(rungs, brute=True), []
    if workload == "corpus-mixed":
        # Per-decision costs are heavy-tailed, so a corpus drawn per seed moves
        # the p90 by a tenth from seed to seed; the instances are therefore
        # drawn once, from CORPUS_SEED, and the run's seed orders them.
        batch = (corpus(CORPUS_SEED, CORPUS_ZERO_FREE, predicate=_small)
                 + corpus(CORPUS_SEED, CORPUS_WITH_ZERO, predicate=_small, with_zero=True))
        named = [(f"corpus_{i:03d}", beta) for i, beta in enumerate(batch)]
        rng.shuffle(named)
        timed = []
        for name, beta in named:
            path = writer.write(name, beta, f"corpus seed {CORPUS_SEED}, {name}")
            commands = ("zero",) if beta.S.zero is not None else ("galois", "correspond")
            timed.extend(writer.decision(name, c, path, beta, keep_beta=True) for c in commands)
        return timed, []
    raise ValueError(f"unknown workload {workload!r}")
