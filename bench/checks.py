"""The correctness gate: what each report must say, and an independent oracle.

`fixed_point_count` counts |A^beta| by brute force over the elements of A,
using only the element API (`FiniteRing.elements`, `StructuredIso.apply`,
`RingElement.mask`), so it shares no code with the lattice engine that the
CLI decides with.
"""

from __future__ import annotations

import json


def fixed_point_count(beta):
    """Number of a in A with beta_s(a 1_{s^-1}) = a 1_s for every s in S."""
    maps = [(iso, iso.dom_support, iso.im_support) for iso in beta.isos]
    return sum(1 for a in beta.A.elements()
               if all(iso.apply(a.mask(dom)) == a.mask(im) for iso, dom, im in maps))


def _checks(raw):
    lines = [json.loads(line) for line in raw.decode("utf-8").splitlines()]
    if not lines or lines[0].get("type") != "header" or lines[-1].get("type") != "summary":
        raise ValueError("report lacks its header or summary line")
    return {x["name"]: x for x in lines if x.get("type") == "check"}


def check_report(decision, raw, invariants_order):
    """None when the report says what `decision` expects, else the disagreement.

    `invariants_order` is the oracle's |A^beta|; a `FAIL precondition`
    report is a verdict and passes as long as nothing else contradicts it.
    """
    try:
        checks = _checks(raw)
    except (ValueError, KeyError) as exc:
        return f"unreadable report: {exc}"
    exp = dict(decision.expect)
    if decision.beta is not None:
        exp["invariants_order"] = invariants_order
    if "precondition" in checks:
        if decision.beta is None:
            return "unexpected FAIL precondition: " + str(checks["precondition"]["data"])
        return None
    got = {}
    if decision.command == "galois":
        data = checks.get("galois", {}).get("data", {})
        got["galois"] = data.get("value")
        got["invariants_order"] = data.get("invariants_order")
    else:
        S = decision.beta.S if decision.beta is not None else None
        if S is not None:
            # the pair T = S carries B = A^beta
            full = checks.get("pair_T_" + "_".join(S.names), {}).get("data", {})
            got["invariants_order"] = full.get("subalgebra_order")
        got["objects"] = checks.get("correspondence_kind", {}).get("data", {}).get("objects")
        got["bijection"] = checks.get("bijection", {}).get("verdict")
        got["brute_force_match"] = checks.get("brute_force_match", {}).get("verdict")
    wrong = {k: (v, got.get(k)) for k, v in exp.items() if got.get(k) != v}
    if wrong:
        return "; ".join(f"{k}: expected {v!r}, reported {g!r}" for k, (v, g) in sorted(wrong.items()))
    return None
