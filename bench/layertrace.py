"""Per-layer tracing installed from outside the package.

Each traced function is replaced by a wrapper that records a span: the
function's name, its duration, and the span that was open when it was called
(its parent).  Spans are aggregated as they close, per name and per
(parent, name) edge, because the hot kernel functions are called millions of
times per F4 survey and keeping every span would cost more memory than the
program itself.  A span's self time is its duration minus the time covered by
its child spans.

The package binds its helpers by value (``from .exactlin import vdot``), so
patching ``exactlin.vdot`` alone would miss the calls made from
``arrangement``.  ``install`` therefore replaces the original object in every
loaded ``weylgpd`` module that holds it.  Methods are patched on their class.
The untraced run never imports this module's wrappers into the package.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

#: (module, attribute) of every traced entry point, by layer.
TARGETS = (
    # exact arithmetic
    ("exactlin", "vdot"),
    ("exactlin", "dual_basis"),
    ("exactlin", "nullspace"),
    # chamber kernel
    ("arrangement", "chamber_from_point"),
    ("arrangement", "adjacent_chamber"),
    ("arrangement", "coords_in_chamber"),
    ("arrangement", "_verify_chamber_basis"),
    # traversal
    ("arrangement", "chamber_bfs"),
    ("cartan", "CartanGraph.ball"),
    ("cartan", "CartanGraph.rho"),
    ("cartan", "generate_real_roots"),
    # analyses
    ("arrangement", "check_crystallographic"),
    ("arrangement", "check_additive"),
    ("arrangement", "extract_cartan_graph"),
    ("realization", "realize"),
    ("realization", "roundtrip_check"),
    ("subarr", "identify_rank2"),
    ("subarr", "restrict"),
    ("subarr", "localize"),
)

ROOT_SPAN = "<workload>"


class Tracer:
    """Aggregated spans of the traced functions; see the module docstring."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        self.chambers = 0
        # Open spans as [name, time covered by children].
        self._stack: list[list] = [[ROOT_SPAN, 0.0]]
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        calls, self_s, edges, stack = self.calls, self.self_s, self.edges, self._stack
        clock = time.perf_counter
        count_chambers = name == "arrangement.chamber_bfs"

        def traced(*args, **kwargs):
            parent = stack[-1]
            span = [name, 0.0]
            stack.append(span)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - span[1]
                edges[(parent[0], name)] += 1
                parent[1] += elapsed
            if count_chambers:
                self.chambers += len(result.order)
            return result

        return traced

    def install(self) -> None:
        """Replace every target in every loaded weylgpd module that binds it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "weylgpd" or n.startswith("weylgpd.")]
        for module_name, attr in TARGETS:
            home = sys.modules[f"weylgpd.{module_name}"]
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self.wrap(name, original))
                continue
            original = getattr(home, attr)
            wrapper = self.wrap(name, original)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def total_calls(self) -> int:
        return sum(self.calls.values())

    def per_call_overhead_s(self, samples: int = 50_000) -> float:
        """Measured cost one wrapper adds to one call, on this machine, now.

        Uses a private tracer so the calibration spans do not mix with the
        workload's spans.
        """
        def noop():
            return None

        probe = Tracer()
        wrapped = probe.wrap("probe", noop)
        best = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            for _ in range(samples):
                noop()
            bare = time.perf_counter() - start
            start = time.perf_counter()
            for _ in range(samples):
                wrapped()
            traced = time.perf_counter() - start
            best = min(best, (traced - bare) / samples)
        return max(best, 0.0)

    def report_edges(self, out) -> None:
        """Write the span tree (parent -> child call counts) for humans."""
        for (parent, child), n in sorted(self.edges.items()):
            print(f"  {parent} -> {child}: {n} calls", file=out)
