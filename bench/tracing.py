"""Spans and counters around privavg's public functions, from outside the package.

`Tracer.installed()` swaps module attributes: every privavg module that holds
a traced function, under whatever name it imported it, gets a wrapper, and
the originals come back when the context ends. Nothing in `src/privavg`
changes, and a function a later version no longer has is simply not traced.

A span is (name, start, end, parent, job). Spans stay in memory and are
written out once, at the end of a run. A span's self time is its duration
minus that of its child spans; one thread runs everything, so children never
overlap. `SeededRng.randint_below` runs millions of times per run, so it gets
a count and an aggregate time instead of spans.
"""
from __future__ import annotations

import importlib
import inspect
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Optional

# (defining module, attribute or Class.method, span name)
SPANNED = (
    ("privavg.cli", "main", "cli.main"),
    ("privavg.cli", "parse_config", "cli.parse_config"),
    ("privavg.topology", "load_topology_text", "topology.load_topology_text"),
    ("privavg.topology", "connected_components", "topology.connected_components"),
    ("privavg.topology", "is_vertex_cut", "topology.is_vertex_cut"),
    ("privavg.topology", "vertex_connectivity", "topology.vertex_connectivity"),
    ("privavg.topology", "incidence_matrix", "topology.incidence_matrix"),
    ("privavg.masking", "build_states", "masking.build_states"),
    ("privavg.masking", "init_shares", "masking.init_shares"),
    ("privavg.masking", "receive_share", "masking.receive_share"),
    ("privavg.masking", "edge_differences", "masking.edge_differences"),
    ("privavg.simnet", "simulate", "simnet.simulate"),
    ("privavg.simnet", "delivery_schedule", "simnet.delivery_schedule"),
    ("privavg.simnet", "RunReport.to_text", "simnet.RunReport.to_text"),
    ("privavg.consensus", "gossip_avg", "consensus.gossip_avg"),
    ("privavg.consensus", "finalize", "consensus.finalize"),
    ("privavg.audit", "check_mask_uniformity", "audit.check_mask_uniformity"),
    ("privavg.audit", "check_effective_input_uniformity", "audit.check_effective_input_uniformity"),
    ("privavg.audit", "check_view_indistinguishability", "audit.check_view_indistinguishability"),
    ("privavg.audit", "check_group_privacy", "audit.check_group_privacy"),
    ("privavg.audit", "enumerate_mask_distribution", "audit.enumerate_mask_distribution"),
    ("privavg.audit", "enumerate_view_distribution", "audit.enumerate_view_distribution"),
    ("privavg.audit", "histogram_csv", "audit.histogram_csv"),
    ("privavg.audit", "sampled_view_test", "audit.sampled_view_test"),
    ("privavg.audit", "chi2_contingency", "audit.chi2_contingency"),
)

# per-layer metrics that are counts: they must repeat exactly from pass to pass
COUNTERS = (
    "simnet.deliveries",
    "simnet.tie_candidates",
    "simnet.phase1_messages",
    "simnet.phase2_messages",
    "simnet.ticks",
    "consensus.gossip_rounds",
    "consensus.denominator_bits",
    "masking.shares",
    "residues.draws",
    "residues.streams",
    "topology.edges_loaded",
    "topology.components_calls",
    "audit.enumerations",
    "audit.rows",
    "audit.support",
    "audit.samples",
    "audit.chi2_tests",
    "audit.leaks_missed",
    "cli.out_bytes",
)


def _arguments(fn: Callable) -> Callable:
    """A function mapping (args, kwargs) of a call to `fn` to its named arguments."""
    sig = inspect.signature(fn)
    return lambda args, kwargs: sig.bind_partial(*args, **kwargs).arguments


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.draw_s = 0.0
        self.job: Optional[int] = None
        self.origin = perf_counter()

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()
        self.draw_s = 0.0

    # ------------------------------------------------------------ wrapping

    def _span(
        self, name: str, fn: Callable, before: Optional[Callable], after: Optional[Callable]
    ) -> Callable:
        stack = self.stack

        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            spans = self.spans
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.job)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _hooks(self, name: str, fn: Callable) -> tuple[Optional[Callable], Optional[Callable]]:
        """(before, after) counter hooks for the functions that have them."""
        if name == "simnet.delivery_schedule":
            def before(args, kwargs):
                pending = args[1] if len(args) > 1 else kwargs.get("pending")
                if pending:
                    first = pending[0].time
                    self.counts["ties"] += sum(1 for ev in pending if ev.time == first)
            return before, None
        if name == "simnet.simulate":
            def after(args, kwargs, report):
                self.counts["simnet.phase1_messages"] += report.phase1_messages
                self.counts["simnet.phase2_messages"] += report.phase2_messages
                self.counts["simnet.ticks"] += report.ticks
            return None, after
        if name == "consensus.gossip_avg":
            def after(args, kwargs, res):
                self.counts["consensus.gossip_rounds"] += res.rounds
                bits = max(v.denominator.bit_length() for v in res.per_agent.values())
                self.counts["consensus.denominator_bits"] = max(
                    self.counts["consensus.denominator_bits"], bits
                )
            return None, after
        if name == "masking.init_shares":
            def after(args, kwargs, msgs):
                self.counts["masking.shares"] += len(msgs)
            return None, after
        if name == "topology.load_topology_text":
            def after(args, kwargs, t):
                self.counts["topology.edges_loaded"] += len(t.edges)
            return None, after
        if name in ("audit.enumerate_mask_distribution", "audit.enumerate_view_distribution"):
            bind = _arguments(fn)

            def after(args, kwargs, hist):
                a = bind(args, kwargs)
                p = a["p"]
                p = p.value if hasattr(p, "value") else int(p)
                self.counts["audit.rows"] += p ** len(a["t"].edges)
                self.counts["audit.support"] += len(hist.counts)
            return None, after
        if name == "audit.sampled_view_test":
            bind = _arguments(fn)

            def after(args, kwargs, verdict):
                if not verdict.details.get("identical_inputs"):
                    self.counts["audit.samples"] += 2 * bind(args, kwargs)["samples"]
            return None, after
        return None, None

    def _draw_wrapper(self, fn: Callable) -> Callable:
        def randint_below(rng, n):
            start = perf_counter()
            result = fn(rng, n)
            self.draw_s += perf_counter() - start
            self.counts["residues.draws"] += 1
            return result

        return randint_below

    def _stream_wrapper(self, fn: Callable) -> Callable:
        def __init__(rng, *args, **kwargs):
            self.counts["residues.streams"] += 1
            fn(rng, *args, **kwargs)

        return __init__

    @contextmanager
    def installed(self):
        """Trace every privavg call made inside the `with` block."""
        undo: list[tuple[object, str, object]] = []
        modules = [m for k, m in list(sys.modules.items()) if k == "privavg" or k.startswith("privavg.")]

        def swap_everywhere(orig, wrapper):
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)

        def swap_method(cls, meth, wrapper):
            undo.append((cls, meth, cls.__dict__[meth]))
            setattr(cls, meth, wrapper)

        try:
            for modname, attr, name in SPANNED:
                mod = importlib.import_module(modname)
                cls_name, _, meth = attr.rpartition(".")
                owner = getattr(mod, cls_name, None) if cls_name else mod
                orig = getattr(owner, meth, None)
                if orig is None:
                    continue
                wrapper = self._span(name, orig, *self._hooks(name, orig))
                if cls_name:
                    swap_method(owner, meth, wrapper)
                else:
                    swap_everywhere(orig, wrapper)
            rng_cls = getattr(importlib.import_module("privavg.residues"), "SeededRng", None)
            if rng_cls is not None:
                swap_method(rng_cls, "randint_below", self._draw_wrapper(rng_cls.randint_below))
                swap_method(rng_cls, "__init__", self._stream_wrapper(rng_cls.__init__))
            yield self
        finally:
            for owner, key, orig in reversed(undo):
                setattr(owner, key, orig)

    # ------------------------------------------------------------ results

    def layer_metrics(self, leaks_missed: int, out_bytes: int) -> dict[str, float]:
        """Per-layer totals over every span and count recorded since `reset`,
        plus the two counts only the oracle and the runner see."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            own[name] += end - start
            calls[name] += 1
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        c = self.counts
        deliveries = calls["simnet.delivery_schedule"]
        enumerate_s = total["audit.enumerate_mask_distribution"] + total["audit.enumerate_view_distribution"]
        return {
            "simnet.simulate_s": total["simnet.simulate"],
            "simnet.self_s": own["simnet.simulate"],
            "simnet.schedule_s": total["simnet.delivery_schedule"],
            "simnet.deliveries": deliveries,
            "simnet.tie_candidates": c["ties"] / deliveries if deliveries else 0.0,
            "simnet.report_s": total["simnet.RunReport.to_text"],
            "simnet.phase1_messages": c["simnet.phase1_messages"],
            "simnet.phase2_messages": c["simnet.phase2_messages"],
            "simnet.ticks": c["simnet.ticks"],
            "consensus.gossip_s": total["consensus.gossip_avg"],
            "consensus.gossip_rounds": c["consensus.gossip_rounds"],
            "consensus.finalize_s": total["consensus.finalize"],
            "consensus.denominator_bits": c["consensus.denominator_bits"],
            "masking.build_s": total["masking.build_states"],
            "masking.init_shares_s": total["masking.init_shares"],
            "masking.receive_share_s": total["masking.receive_share"],
            "masking.shares": c["masking.shares"],
            "masking.edge_diff_s": total["masking.edge_differences"],
            "residues.draws": c["residues.draws"],
            "residues.streams": c["residues.streams"],
            "residues.draw_s": self.draw_s,
            "topology.load_s": total["topology.load_topology_text"],
            "topology.edges_loaded": c["topology.edges_loaded"],
            "topology.components_s": total["topology.connected_components"],
            "topology.components_calls": calls["topology.connected_components"],
            "topology.cut_s": total["topology.is_vertex_cut"],
            "topology.connectivity_s": total["topology.vertex_connectivity"],
            "topology.incidence_s": total["topology.incidence_matrix"],
            "audit.enumerate_s": enumerate_s,
            "audit.enumerations": calls["audit.enumerate_mask_distribution"]
            + calls["audit.enumerate_view_distribution"],
            "audit.rows": c["audit.rows"],
            "audit.rows_per_s": c["audit.rows"] / enumerate_s if enumerate_s else 0.0,
            "audit.support": c["audit.support"],
            "audit.sample_s": own["audit.sampled_view_test"],
            "audit.samples": c["audit.samples"],
            "audit.chi2_s": total["audit.chi2_contingency"],
            "audit.chi2_tests": calls["audit.chi2_contingency"],
            "audit.leaks_missed": leaks_missed,
            "cli.parse_s": own["cli.parse_config"],
            "cli.self_s": own["cli.main"],
            "cli.out_bytes": out_bytes,
        }

    def write_spans(self, path, passes: list[list]) -> None:
        """Write the spans of each traced pass as JSON lines; `parent` is the
        `id` of the parent span within the same pass, or -1."""
        with open(path, "w") as fh:
            for pass_no, spans in enumerate(passes, start=1):
                for idx, (name, start, end, parent, job) in enumerate(spans):
                    fh.write(json.dumps({
                        "pass": pass_no, "id": idx, "name": name,
                        "start": start - self.origin, "end": end - self.origin,
                        "parent": parent, "job": job,
                    }) + "\n")
