"""Spans around the public functions of each twpw layer, from outside.

Tracing replaces every binding of a traced function, in every twpw module
namespace that holds one (``validate`` is bound separately in
``decomposition``, ``exact``, ``harness``, ``cli`` and the package root),
with a wrapper that records a span: name, start, end and the index of the
enclosing span.  Spans stay in memory until the run ends.  A layer's self
time is the duration of its spans minus the part of each that its child
spans cover, so the layers' self times add up to the traced wall time.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter

MODULES = (
    "twpw", "twpw.cli", "twpw.harness", "twpw.exact", "twpw.unary",
    "twpw.binary", "twpw.decomposition", "twpw.fileformats",
    "twpw.invariants", "twpw.kernels", "twpw.minors", "twpw.graphs",
)

# layer -> the public functions of its module that are traced; None means
# every public function defined there
LAYER_FUNCTIONS = {
    "kernels": ("treewidth_dp", "pathwidth_dp"),
    "exact": ("exact_treewidth", "exact_pathwidth", "exact_width",
              "elimination_decomposition", "layout_decomposition"),
    "decomposition": ("validate", "tree_to_path", "remove_redundant_bags"),
    "unary": None,
    "binary": None,
    "invariants": None,
    "fileformats": ("parse_gr", "parse_td", "format_gr", "format_td"),
    "harness": ("run_suite", "run_relation_suite", "run_unary_table",
                "run_binary_table", "run_nordhaus_gaddum", "run_logbound",
                "render_tap"),
    "cli": ("main",),
}

CERT_FUNCTIONS = ("elimination_decomposition", "layout_decomposition")
REWRITE_FUNCTIONS = ("tree_to_path", "remove_redundant_bags")


def self_times(spans) -> list[float]:
    """Per-span self time: duration minus the union of its children's spans.

    `spans` holds (name, start, end, parent) with parent an index into
    `spans` or -1.  Child intervals are clipped to their parent's.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append((end - start) - covered)
    return out


def is_connected_masks(masks) -> bool:
    """Connectivity of a graph given as adjacency masks (bit j of masks[i])."""
    n = len(masks)
    if n <= 1:
        return True
    seen = frontier = 1
    while frontier:
        grow = 0
        f = frontier
        while f:
            low = f & -f
            grow |= masks[low.bit_length() - 1]
            f ^= low
        frontier = grow & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def _traced_functions():
    """(span name, function) for every traced function of every layer."""
    kernels = importlib.import_module("twpw.kernels")
    out = []
    for layer, names in LAYER_FUNCTIONS.items():
        if layer == "kernels":
            out.extend((f"kernels.{n}", getattr(kernels, n)) for n in names)
            continue
        module = importlib.import_module(f"twpw.{layer}")
        if names is None:
            names = [n for n, f in vars(module).items()
                     if inspect.isfunction(f) and f.__module__ == module.__name__
                     and not n.startswith("_")]
        out.extend((f"{layer}.{n}", getattr(module, n)) for n in names)
    return out


class Tracer:
    """Installs span-recording wrappers; `restore` puts the originals back."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._seen_kernel_inputs: set = set()
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        wrappers = {}
        for name, fn in _traced_functions():
            wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for modname in MODULES:
            module = importlib.import_module(modname)
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def restore(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        observe = getattr(self, "_observe_" + name.split(".")[0], None)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if observe is not None:
                observe(name, args, result, end - start)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe_kernels(self, name, args, result, seconds) -> None:
        masks = args[0]
        key = (name, tuple(masks))
        self.counts["kernels.subsets"] += 1 << len(masks)
        if not is_connected_masks(masks):
            self.counts["kernels.disconnected"] += 1
        if key in self._seen_kernel_inputs:
            self.counts["kernels.repeats"] += 1
            self.counts["kernels.repeat_s"] += seconds
        else:
            self._seen_kernel_inputs.add(key)

    def _observe_decomposition(self, name, args, result, seconds) -> None:
        if name == "decomposition.validate" and not result.valid:
            self.counts["decomposition.invalid"] += 1

    def _observe_fileformats(self, name, args, result, seconds) -> None:
        text = args[0] if name.startswith("fileformats.parse") else result
        self.counts["fileformats.bytes"] += len(text)

    def _observe_harness(self, name, args, result, seconds) -> None:
        if name == "harness.run_suite":
            self.counts["harness.checks"] += len(result)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times, keyed as in BENCHMARK.json."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for (name, _, _, _), own in zip(self.spans, self_times(self.spans)):
            layer, fn = name.split(".", 1)
            if layer == "exact":
                group = "exact.cert" if fn in CERT_FUNCTIONS else "exact"
            elif layer == "decomposition":
                group = ("decomposition.rewrite" if fn in REWRITE_FUNCTIONS
                         else "decomposition.validate")
            elif layer == "unary":
                group = ("unary.transform" if fn.endswith("_decomposition")
                         else "unary.op")
            elif layer == "fileformats":
                group = "fileformats." + fn.split("_")[0]
            else:
                group = layer
            calls[group] += 1
            self_s[group] += own
        c = self.counts
        kcalls = calls["kernels"]
        return {
            "kernels.calls": kcalls,
            "kernels.self_s": self_s["kernels"],
            "kernels.subsets": c["kernels.subsets"],
            "kernels.repeat_ratio": c["kernels.repeats"] / kcalls if kcalls else 0.0,
            "kernels.repeat_s": c["kernels.repeat_s"],
            "exact.calls": calls["exact"],
            "exact.self_s": self_s["exact"],
            "exact.cert_calls": calls["exact.cert"],
            "exact.cert_self_s": self_s["exact.cert"],
            "decomposition.validate_calls": calls["decomposition.validate"],
            "decomposition.validate_self_s": self_s["decomposition.validate"],
            "decomposition.invalid_ratio": (
                c["decomposition.invalid"] / calls["decomposition.validate"]
                if calls["decomposition.validate"] else 0.0),
            "decomposition.rewrite_self_s": self_s["decomposition.rewrite"],
            "unary.op_calls": calls["unary.op"],
            "unary.op_self_s": self_s["unary.op"],
            "unary.transform_calls": calls["unary.transform"],
            "unary.transform_self_s": self_s["unary.transform"],
            "binary.calls": calls["binary"],
            "binary.self_s": self_s["binary"],
            "invariants.calls": calls["invariants"],
            "invariants.self_s": self_s["invariants"],
            "harness.checks": c["harness.checks"],
            "harness.self_s": self_s["harness"],
            "cli.self_s": self_s["cli"],
            "fileformats.parse_calls": calls["fileformats.parse"],
            "fileformats.parse_self_s": self_s["fileformats.parse"],
            "fileformats.format_calls": calls["fileformats.format"],
            "fileformats.format_self_s": self_s["fileformats.format"],
            "fileformats.bytes": c["fileformats.bytes"],
        }

    def write(self, path) -> None:
        """One JSON line per span: name, start, end, parent, self time."""
        with open(path, "w", encoding="ascii") as fh:
            for (name, start, end, parent), own in zip(self.spans, self_times(self.spans)):
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "self": own}) + "\n")
