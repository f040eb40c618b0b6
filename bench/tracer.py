"""Spans around the library's public functions, recorded from outside.

`Tracer.install` wraps each function in `LAYERS` in every `semigalois.*`
module namespace that binds it (methods are patched on their class) and
`uninstall` puts the originals back.  Each call becomes a span (group,
start, end, parent, decision id) kept in flat arrays; self time is a
span's duration minus the time its child spans cover.  Nothing under
`src/` is changed: the spans sit at the layer boundaries the benchmark
can see.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# group -> functions it covers, as "module:function" or "module:Class.method".
# A function's group is the layer whose question it answers, which for the
# trace and alpha criteria is an `actions` function called by `galois`.
LAYERS = {
    "linalg": ["linalg:lattice_canon", "linalg:kernel_gens", "linalg:solve_cols",
               "linalg:snf_invariants"],
    "rings.mul_vec": ["rings:FiniteRing.mul_vec"],
    "rings.closure": ["rings:Subalgebra.closure_under_mul"],
    "rings.iso_apply": ["rings:StructuredIso.apply"],
    "rings.tensor": ["rings:TensorPresentation.__init__"],
    "galois.crosscheck": ["galois:cross_check_equivalences"],
    "galois.coordinates": ["galois:solve_galois_coordinates", "galois:is_galois"],
    "galois.psi": ["galois:psi_check"],
    "galois.separable": ["galois:is_separable"],
    "galois.strong": ["galois:is_beta_strong", "galois:compute_S_B"],
    "galois.trace": ["actions:sigma_trace_image", "galois:is_galois_trace_criterion"],
    "galois.alpha": ["actions:induce_partial_group_action",
                     "galois:solve_partial_action_coordinates"],
    "galois.idempotent": ["galois:separability_idempotent_from_coordinates",
                          "galois:verify_separability_idempotent"],
    "correspondence": ["correspondence:verify_e_unitary_correspondence",
                       "correspondence:verify_general_correspondence",
                       "correspondence:enumerate_beta_complete",
                       "correspondence:is_beta_complete", "correspondence:is_beta_maximal",
                       "correspondence:fixed_subalgebra",
                       "correspondence:enumerate_subalgebras_over"],
    "instance": ["instance:parse_instance", "instance:parse_instance_text"],
    "semigroups": ["semigroups:validate_table", "semigroups:saturate_presentation",
                   "semigroups:sigma_partition", "semigroups:is_e_unitary",
                   "semigroups:enumerate_full_inverse_subsemigroups",
                   "semigroups:generated_subsemigroup", "semigroups:join_of",
                   "semigroups:restrict_table"],
    "actions": ["actions:validate_action", "actions:is_injective", "actions:invariant_ring",
                "actions:restrict_action", "actions:image_action", "actions:trace_map",
                "actions:sigma_trace"],
    "isopu.compose": ["isopu:compose"],
    "zerocase": ["zerocase:require_zero_action", "zerocase:is_0_e_unitary",
                 "zerocase:is_categorical_at_zero", "zerocase:tau_partition",
                 "zerocase:is_primitive", "zerocase:primitive_to_groupoid",
                 "zerocase:groupoid_to_primitive",
                 "zerocase:validate_partial_semigroup_action",
                 "zerocase:convert_round_trip_ok", "zerocase:p_prime_construction",
                 "zerocase:verify_zero_correspondence"],
    "cli": ["cli:main"],
}

# Per-layer metrics: name -> unit, better.  Every traced run reports each one.
PER_LAYER = {
    "linalg.calls": ("count", "lower"),
    "linalg.self_s": ("s", "lower"),
    "linalg.cells": ("count", "lower"),
    "rings.mul_vec.calls": ("count", "lower"),
    "rings.mul_vec.self_s": ("s", "lower"),
    "rings.closure.calls": ("count", "lower"),
    "rings.closure.self_s": ("s", "lower"),
    "rings.iso_apply.calls": ("count", "lower"),
    "rings.tensor.builds": ("count", "lower"),
    "rings.tensor.generators": ("count", "lower"),
    "rings.tensor.relations": ("count", "lower"),
    "rings.tensor.self_s": ("s", "lower"),
    "galois.tensor_builds_per_crosscheck": ("ratio", "lower"),
    "galois.coordinates.self_s": ("s", "lower"),
    "galois.psi.self_s": ("s", "lower"),
    "galois.separable.self_s": ("s", "lower"),
    "galois.strong.self_s": ("s", "lower"),
    "galois.trace.self_s": ("s", "lower"),
    "galois.alpha.self_s": ("s", "lower"),
    "galois.idempotent.self_s": ("s", "lower"),
    "correspondence.self_s": ("s", "lower"),
    "correspondence.subalgebras_scanned": ("count", "lower"),
    "correspondence.scan_yield": ("ratio", "higher"),
    "instance.self_s": ("s", "lower"),
    "semigroups.self_s": ("s", "lower"),
    "actions.self_s": ("s", "lower"),
    "isopu.compose.calls": ("count", "lower"),
    "zerocase.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.report_bytes": ("bytes", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.untraced_decisions_per_s": ("1/s", "higher"),
    "trace.traced_decisions_per_s": ("1/s", "higher"),
    "trace.overhead": ("ratio", "lower"),
}


def _cols(x):
    shape = np.shape(x)
    return shape[1] if len(shape) == 2 else 0


def _cells(name, args, kwargs):
    """rows x cols of the matrix a linalg entry point works on."""
    if name == "lattice_canon":
        cols = args[0] if args else kwargs["cols"]
        moduli = args[1] if len(args) > 1 else kwargs.get("moduli")
        if moduli is None:
            return int(np.prod(np.shape(cols)))
        return len(moduli) * (_cols(cols) + len(moduli))
    if name == "snf_invariants":
        return int(np.prod(np.shape(args[0])))
    mat, aug = args[0], args[1]
    return np.shape(mat)[0] * (_cols(mat) + _cols(aug))


def _resolve(spec):
    mod_name, _, attr = spec.partition(":")
    module = importlib.import_module("semigalois." + mod_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return module, getattr(module, cls_name), meth
    return module, None, attr


class Tracer:
    """In-memory span recorder; install() patches, uninstall() restores."""

    def __init__(self):
        self.groups = list(LAYERS)
        self.start = array("d")
        self.end = array("d")
        self.group = array("i")
        self.parent = array("i")
        self.decision = array("i")
        self.child = array("d")
        self.stack = []
        self.decision_id = -1
        self.counts = Counter()
        self.strong_ok = {}  # span index -> is_beta_strong verdict
        self.scans = []  # (span index, subalgebras returned) per enumerate_subalgebras_over
        self._patches = []

    # -- patching ------------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for gid, group in enumerate(self.groups):
                for spec in LAYERS[group]:
                    self._patch(spec, gid)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, spec, gid):
        module, cls, attr = _resolve(spec)
        if cls is not None:
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, gid, attr))
            return
        original = getattr(module, attr)
        wrapper = self._wrap(original, gid, attr)
        for name, mod in list(sys.modules.items()):
            if name == "semigalois" or name.startswith("semigalois."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, gid, name):
        start, end, group, parent = self.start, self.end, self.group, self.parent
        decision, child, stack = self.decision, self.child, self.stack
        after = self._after_hook(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            start.append(perf_counter())
            end.append(0.0)
            group.append(gid)
            parent.append(stack[-1] if stack else -1)
            decision.append(tracer.decision_id)
            child.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                t = perf_counter()
                end[idx] = t
                stack.pop()
                if stack:
                    child[stack[-1]] += t - start[idx]
            if after is not None:
                after(idx, args, kwargs, result)
            return result

        return wrapper

    # -- counters taken at the boundary ----------------------------------------

    def _after_hook(self, name):
        if name in ("lattice_canon", "kernel_gens", "solve_cols", "snf_invariants"):
            return functools.partial(self._note_linalg, name)
        return {"__init__": self._note_tensor, "is_beta_strong": self._note_strong,
                "enumerate_subalgebras_over": self._note_scan}.get(name)

    def _note_linalg(self, name, idx, args, kwargs, result):
        self.counts["linalg.cells"] += _cells(name, args, kwargs)

    def _note_tensor(self, idx, args, kwargs, result):
        tensor = args[0]
        self.counts["rings.tensor.generators"] += tensor.k * tensor.l
        self.counts["rings.tensor.relations"] += _cols(tensor.pres.relations)

    def _note_strong(self, idx, args, kwargs, result):
        self.strong_ok[idx] = bool(result[0])

    def _note_scan(self, idx, args, kwargs, result):
        self.scans.append((idx, len(result)))

    # -- results -----------------------------------------------------------------

    def self_times(self):
        out = Counter()
        for i in range(len(self.start)):
            out[self.groups[self.group[i]]] += self.end[i] - self.start[i] - self.child[i]
        return out

    def calls(self):
        return Counter(self.groups[g] for g in self.group)

    def _inside(self, idx, gid):
        p = self.parent[idx]
        while p >= 0:
            if self.group[p] == gid:
                return True
            p = self.parent[p]
        return False

    def layer_metrics(self):
        """Every per-layer metric this tracer measures (not the trace.* ones)."""
        st, calls = self.self_times(), self.calls()
        tensor, cross = self.groups.index("rings.tensor"), self.groups.index("galois.crosscheck")
        tensor_in_cross = sum(1 for i in range(len(self.start))
                              if self.group[i] == tensor and self._inside(i, cross))
        scanned = sum(n for _, n in self.scans)
        winners = 0
        for idx, _ in self.scans:
            # the brute-force scan judges each subalgebra right after enumerating
            winners += sum(1 for i, ok in self.strong_ok.items()
                           if ok and self.parent[i] == self.parent[idx]
                           and self.start[i] >= self.end[idx])
        m = {
            "linalg.calls": calls["linalg"],
            "linalg.cells": self.counts["linalg.cells"],
            "rings.mul_vec.calls": calls["rings.mul_vec"],
            "rings.closure.calls": calls["rings.closure"],
            "rings.iso_apply.calls": calls["rings.iso_apply"],
            "rings.tensor.builds": calls["rings.tensor"],
            "rings.tensor.generators": self.counts["rings.tensor.generators"],
            "rings.tensor.relations": self.counts["rings.tensor.relations"],
            "galois.tensor_builds_per_crosscheck": (tensor_in_cross / calls["galois.crosscheck"]
                                                    if calls["galois.crosscheck"] else 0.0),
            "correspondence.subalgebras_scanned": scanned,
            "correspondence.scan_yield": winners / scanned if scanned else 0.0,
            "isopu.compose.calls": calls["isopu.compose"],
            "trace.spans": len(self.start),
        }
        for group in ("linalg", "rings.mul_vec", "rings.closure", "rings.tensor",
                      "galois.coordinates", "galois.psi", "galois.separable", "galois.strong",
                      "galois.trace", "galois.alpha", "galois.idempotent", "correspondence",
                      "instance", "semigroups", "actions", "zerocase", "cli"):
            m[f"{group}.self_s"] = float(st[group])
        return m

    def write_spans(self, path, t0):
        """One CSV line per span: id, group, start_us, end_us, parent, decision."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,group,start_us,end_us,parent,decision\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.groups[self.group[i]]},{(self.start[i] - t0) * 1e6:.1f},"
                         f"{(self.end[i] - t0) * 1e6:.1f},{self.parent[i]},{self.decision[i]}\n")
