"""Command line interface: deterministic reports over instance files.

Commands: validate, analyze, galois, correspond, zero, selftest.  Reports
are byte-stable for a given input (timing is withheld unless --timing);
the exit code is 0 exactly when every requested verdict holds, and 3 when
loading or the command runs out of its work budget (`--budget`).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import sys
import time

from . import __version__, budget
from .actions import invariant_ring, is_injective
from .galois import PreconditionFail, cross_check_equivalences
from .instance import ParseError, instance_text, parse_instance_text
from .semigroups import SemigroupError, is_e_unitary, sigma_partition
from . import zerocase as zc

SCHEMA = "semigalois-report"
SCHEMA_VERSION = 1


class Report:
    """Instance digest, per-check verdicts, certificates, counterexamples."""

    def __init__(self, command, digest, seed):
        self.command = command
        self.digest = digest
        self.seed = seed
        self.checks = []
        self.timings = []

    def add(self, name, verdict, **data):
        self.checks.append((name, bool(verdict), data))

    def info(self, name, **data):
        self.checks.append((name, None, data))

    def time(self, name, seconds):
        self.timings.append((name, seconds))

    def ok(self):
        return all(v for _, v, _ in self.checks if v is not None)


def emit_report(report, fmt="text", timing=False):
    """Deterministic serialization; identical inputs give identical bytes."""
    if fmt == "json-lines":
        lines = [json.dumps({
            "type": "header", "schema": SCHEMA, "version": SCHEMA_VERSION,
            "tool": f"semigalois {__version__}", "command": report.command,
            "instance_digest": report.digest, "seed": report.seed,
        }, sort_keys=True)]
        for name, verdict, data in report.checks:
            obj = {"type": "check", "name": name, "data": data}
            if verdict is not None:
                obj["verdict"] = verdict
            lines.append(json.dumps(obj, sort_keys=True, default=str))
        if timing:
            for name, seconds in report.timings:
                lines.append(json.dumps({"type": "timing", "name": name,
                                         "seconds": round(seconds, 3)}, sort_keys=True))
        lines.append(json.dumps({
            "type": "summary", "ok": report.ok(),
            "checks": sum(1 for _, v, _ in report.checks if v is not None),
            "failed": sum(1 for _, v, _ in report.checks if v is False),
        }, sort_keys=True))
        return ("\n".join(lines) + "\n").encode()
    out = [f"# semigalois report  command={report.command}  seed={report.seed}",
           f"# instance sha256 {report.digest}"]
    for name, verdict, data in report.checks:
        mark = "" if verdict is None else ("ok   " if verdict else "FAIL ")
        extra = "  ".join(f"{k}={_fmt(v)}" for k, v in data.items())
        out.append(f"{mark}{name}" + (f"  {extra}" if extra else ""))
    if timing:
        for name, seconds in report.timings:
            out.append(f"time {name}  {seconds:.3f}s")
    out.append(f"# result: {'PASS' if report.ok() else 'FAIL'}")
    return ("\n".join(out) + "\n").encode()


def _fmt(v):
    if isinstance(v, (list, tuple)):
        return "[" + ",".join(_fmt(x) for x in v) + "]"
    return str(v)


def _names(S, indices):
    return [S.names[i] for i in sorted(indices)]


def cmd_validate(beta, report):
    S, A = beta.S, beta.A
    report.add("action_valid", True, semigroup_order=S.n, ring_order=A.size,
               atoms=[a.label() for a in A.atoms],
               zero=S.names[S.zero] if S.zero is not None else "none")


def cmd_analyze(beta, report):
    S = beta.S
    cmd_validate(beta, report)
    report.info("idempotents", elements=_names(S, S.idempotents))
    order_pairs = [f"{S.names[s]}<{S.names[t]}" for s in range(S.n) for t in range(S.n)
                   if s != t and S.leq[s][t]]
    report.info("natural_order", strict_pairs=order_pairs)
    report.add("injective", is_injective(beta))
    report.info("ideal_supports",
                supports=[f"{S.names[s]}:{sorted(beta.im_support(s))}" for s in range(S.n)])
    inv = invariant_ring(beta)
    report.info("invariants", order=inv.order, generators=[repr(g) for g in inv.generators()])
    if S.zero is None:
        G, classes, _ = sigma_partition(S)
        report.info("sigma_classes", classes=[_names(S, c) for c in classes], group_order=G.n)
        report.add("e_unitary", is_e_unitary(S))
    else:
        classes, _ = zc.tau_partition(S)
        report.info("tau_classes", classes=[_names(S, c) for c in classes])
        report.add("zero_e_unitary", zc.is_0_e_unitary(S))
        report.add("categorical_at_zero", zc.is_categorical_at_zero(S))
        report.info("primitive", value=zc.is_primitive(S))


def cmd_galois(beta, report):
    t0 = time.monotonic()
    rep = cross_check_equivalences(beta)
    report.time("cross_check", time.monotonic() - t0)
    for name, verdict in rep.verdicts.items():
        report.add(f"criterion_{name}", verdict)
    report.add("core_criteria_unanimous", True)
    if rep.trace_gap:
        report.info("trace_gap",
                    note="trace image equals the invariants although the extension "
                         "is not Galois; the trace test is necessary, not sufficient")
    report.info("galois", value=rep.galois, invariants_order=rep.invariants_order)
    cert, element = rep.certificate, beta.A.from_vec
    if cert.coordinates is not None:
        report.info("coordinates",
                    pairs=[f"({element(x)!r},{element(y)!r})" for x, y in cert.coordinates])
    if cert.psi is not None:
        report.info("psi_orders", tensor=cert.psi.tensor_order, pa=cert.psi.pa_order,
                    image=cert.psi.image_order)
    if cert.strong_failure:
        s, t, supp = cert.strong_failure
        report.info("strong_failure", s=beta.S.names[s], t=beta.S.names[t],
                    idempotent_support=sorted(supp))
    report.info("trace_image_generators",
                generators=[repr(element(g)) for g in cert.trace_image_generators])


def _add_correspondence_verdicts(report, rep):
    """The bijection and brute-force verdicts, then one line per failure."""
    report.add("bijection", rep.bijective)
    if rep.brute_force_match is not None:
        report.add("brute_force_match", rep.brute_force_match)
    for f in rep.failures:
        report.info("failure", detail=[str(x) for x in f])


def cmd_correspond(beta, report, brute_force_subalgebras=False):
    from .correspondence import verify_e_unitary_correspondence, verify_general_correspondence
    t0 = time.monotonic()
    if beta.S.zero is not None:
        raise PreconditionFail("declared zero: use the `zero` command")
    if is_injective(beta) and is_e_unitary(beta.S):
        rep = verify_e_unitary_correspondence(beta, brute_force_subalgebras)
        kind = "e_unitary"
    else:
        rep = verify_general_correspondence(beta, brute_force_subalgebras)
        kind = "general"
    report.time("correspondence", time.monotonic() - t0)
    report.info("correspondence_kind", kind=kind, objects=len(rep.pairs))
    for p in rep.pairs:
        report.add(f"pair_T_{'_'.join(_names(beta.S, p.members))}",
                   p.separable and p.strong and p.round_trip_t and p.round_trip_b,
                   subalgebra_order=p.subalgebra_order,
                   s_b=_names(beta.S, p.s_b_members),
                   separable=p.separable, strong=p.strong)
    _add_correspondence_verdicts(report, rep)


def cmd_zero(beta, report, brute_force_subalgebras=False):
    S = beta.S
    if S.zero is None:
        raise PreconditionFail("the zero command needs a declared zero")
    zc.require_zero_action(beta)
    report.add("zero_e_unitary", zc.is_0_e_unitary(S))
    report.add("categorical_at_zero", zc.is_categorical_at_zero(S))
    classes, _ = zc.tau_partition(S)
    report.info("tau_classes", classes=[_names(S, c) for c in classes])
    prim = zc.is_primitive(S)
    report.info("primitive", value=prim)
    if prim:
        alpha = zc.validate_partial_semigroup_action(S, beta.A, beta.isos)
        gamma, table_ok, action_ok = zc.round_trips(alpha)
        G = gamma.S
        report.add("groupoid_round_trip", table_ok,
                   groupoid_size=G.n, identities=[G.names[e] for e in G.idempotents])
        report.add("action_conversion_round_trip", action_ok)
    if zc.is_0_e_unitary(S) and zc.is_categorical_at_zero(S):
        P, joins, _ = zc.p_prime_construction(beta)
        report.add("p_prime_primitive", zc.is_primitive(P), order=P.n)
    t0 = time.monotonic()
    rep = zc.verify_zero_correspondence(beta, brute_force_subalgebras)
    report.time("zero_correspondence", time.monotonic() - t0)
    for p in rep.pairs:
        report.add(f"pair_T_{'_'.join(_names(S, p.members))}",
                   p.separable and p.strong and p.round_trip_t and p.round_trip_b,
                   subalgebra_order=p.subalgebra_order)
    _add_correspondence_verdicts(report, rep)


def cmd_selftest(beta, report):
    """A seeded slice of the property corpus; the full suite lives in pytest."""
    # the corpus module is loaded here, not at import: no other command needs it
    from .corpus import b2_swap_fixture, c2_swap_fixture, corpus, f9_cubed_fixture
    from .correspondence import verify_e_unitary_correspondence

    t0 = time.monotonic()
    beta = f9_cubed_fixture()
    inv = invariant_ring(beta)
    report.add("fixture_invariants", inv.order == 27, order=inv.order)
    rep = cross_check_equivalences(beta)
    report.add("fixture_galois", rep.galois)
    corr = verify_e_unitary_correspondence(beta)
    report.add("fixture_correspondence", corr.bijective, objects=len(corr.pairs))
    zrep = zc.verify_zero_correspondence(b2_swap_fixture())
    report.add("b2_zero_correspondence", zrep.bijective)

    def admissible(b):
        return (b.S.zero is None and is_e_unitary(b.S) and is_injective(b)
                and b.all_ideals_nonzero())

    batch = corpus(report.seed, 25, predicate=admissible)
    galois_count = 0
    for b in batch:
        r = cross_check_equivalences(b)
        galois_count += r.galois
    report.add("corpus_unanimity", True, instances=len(batch), galois=galois_count)
    report.add("c2_swap_galois", cross_check_equivalences(c2_swap_fixture()).galois)
    report.time("selftest", time.monotonic() - t0)


FORMATS = ("text", "json-lines")
DEFAULT_BUDGET = 2_000_000


def _positive_int(text):
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser():
    p = argparse.ArgumentParser(prog="semigalois",
                                description="Galois machinery for inverse semigroup "
                                            "actions on finite commutative rings")
    p.add_argument("command", choices=["validate", "analyze", "galois",
                                       "correspond", "zero", "selftest"])
    p.add_argument("instance", nargs="?", help="instance file (not used by selftest)")
    p.add_argument("--format", choices=FORMATS, help="report format (default: text)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET)
    p.add_argument("--brute-force-subalgebras", action="store_true")
    p.add_argument("--timing", action="store_true")
    return p


@functools.cache
def parser():
    """The one parser every `main` call uses, built on first use."""
    return build_parser()


def main(argv=None):
    args = parser().parse_args(argv)
    if args.command == "selftest":
        beta, report = None, Report("selftest", "-", args.seed)
    elif not args.instance:
        print("error: this command needs an instance file", file=sys.stderr)
        return 2
    else:
        try:
            with open(args.instance, "rb") as fh:
                data = fh.read()
            with budget.limit(args.budget):
                beta = parse_instance_text(instance_text(data))
        except FileNotFoundError:
            print(f"error: no such file: {args.instance}", file=sys.stderr)
            return 2
        except OSError as exc:
            print(f"error: cannot read {args.instance}: {exc.strerror or exc}", file=sys.stderr)
            return 2
        except (ParseError, SemigroupError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except budget.BudgetExceeded as exc:
            print(f"error: budget: {exc}", file=sys.stderr)
            return 3
        report = Report(args.command, hashlib.sha256(data).hexdigest(), args.seed)
    handler = {"validate": cmd_validate, "analyze": cmd_analyze, "galois": cmd_galois,
               "correspond": cmd_correspond, "zero": cmd_zero,
               "selftest": cmd_selftest}[args.command]
    if args.command in ("correspond", "zero"):
        handler = functools.partial(handler, brute_force_subalgebras=args.brute_force_subalgebras)
    code = None
    try:
        with budget.limit(args.budget):  # fresh on every call
            handler(beta, report)
    except PreconditionFail as exc:
        report.add("precondition", False, detail=str(exc))
    except budget.BudgetExceeded as exc:
        report.add("budget", False, quantity=exc.quantity, spent=exc.spent, limit=exc.limit)
        code = 3
    sys.stdout.buffer.write(emit_report(report, args.format, args.timing))
    return code or (0 if report.ok() else 1)


if __name__ == "__main__":
    sys.exit(main())
