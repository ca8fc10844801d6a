"""In-memory spans for the traced run.

A span is one call into a public function of the package: its name
("<layer>.<function>"), start, end, parent span, the op it belongs to and
whether it raised.  Spans come from two places, both outside src/:

* the benchmark's own calls, through an Api whose functions are wrapped;
* calls from one module of the package into another, by swapping the
  imported names in the calling module for wrapped ones while the traced
  run lasts (CROSS_LAYER_NAMES).  Calls inside one module are not spans.

Nothing is written out until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

# (module holding the imported name, attribute, span name)
CROSS_LAYER_NAMES = (
    ("asdimlab.cli", "parse_manifold", "manifolds.parse_manifold"),
    ("asdimlab.cli", "compile_manifold", "manifolds.compile"),
    ("asdimlab.cli", "to_canonical", "groups.to_canonical"),
    ("asdimlab.cli", "list_geometries", "geometries.list_geometries"),
    ("asdimlab.cli", "fact_record", "geometries.fact_record"),
    ("asdimlab.cli", "brick_cover", "coarse.brick_cover"),
    ("asdimlab.cli", "cayley_ball", "coarse.cayley_ball"),
    ("asdimlab.cli", "format_witness", "coarse.format_witness"),
    ("asdimlab.cli", "min_families_exhaustive", "coarse.min_families_exhaustive"),
    ("asdimlab.cli", "parse_witness", "coarse.parse_witness"),
    ("asdimlab.cli", "verify_cover", "coarse.verify_cover"),
    # cli and manifolds reach the engine through the module object
    ("asdimlab.engine", "bound", "engine.bound"),
    ("asdimlab.engine", "consequences", "engine.consequences"),
    ("asdimlab.engine", "serialize_trace", "engine.serialize_trace"),
    ("asdimlab.manifolds", "lookup_geometry", "geometries.lookup_geometry"),
    ("asdimlab.engine", "normalize", "groups.normalize"),
    ("asdimlab.engine", "to_canonical", "groups.to_canonical"),
    ("asdimlab.engine", "is_infinite", "groups.is_infinite"),
    ("asdimlab.engine", "lookup_geometry", "geometries.lookup_geometry"),
    ("asdimlab.engine", "factor_facts", "geometries.factor_facts"),
    ("asdimlab.groups", "lookup_geometry", "geometries.lookup_geometry"),
)


class Tracer:
    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, op id, raised]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = 0

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.op, False])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                spans[idx][5] = True
                raise
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()

        return traced

    @contextmanager
    def patched(self):
        """Swap the cross-layer imported names for traced ones, then restore."""
        saved = []
        try:
            for module_name, attr, span in CROSS_LAYER_NAMES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(span, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive and self seconds, raised count,
        and the number of spans where an exception started (no raising child)."""
        child_time = [0.0] * len(self.spans)
        child_raised = [False] * len(self.spans)
        for name, start, end, parent, _, raised in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
                child_raised[parent] |= raised
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0,
                                                    "raised": 0, "origin": 0})
        for i, (name, start, end, _, _, raised) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child_time[i]
            row["raised"] += raised
            row["origin"] += raised and not child_raised[i]
        return dict(out)
