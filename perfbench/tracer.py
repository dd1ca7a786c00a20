"""Spans around the public functions of every ``mecoffload`` layer.

The program is not changed: :meth:`Tracer.install` replaces each public
function of the layer modules by a timing wrapper, in every module that
holds a reference to it.  That matters because ``bnb``, ``ibnb`` and
``relax`` bind ``solve_lp``, ``build_relaxation``, ``featurize``,
``forward`` and ``model_fingerprint`` by name at import time; patching only
the defining module would miss those calls.

Spans are kept in memory as ``(label, parent, start, end, frame, tag)`` and
are reduced to counts, total times and self times after the run.  A span's
self time is its duration minus the durations of its direct children; its
tag is an outcome read off the return value (``solve_lp``'s status).  Time
the benchmark reports through :meth:`Tracer.exclude` while a span is open
(reference-kernel passes run from a signal handler) is taken out of that
span's duration, by moving its end earlier.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "mecoffload"
#: Layer modules in dependency order; each names a layer of the metrics.
LAYERS = ("scenario", "lp", "relax", "bnb", "dataset", "mlp", "ibnb", "cli")

#: ``solve_bnb`` called from inside ``solve_ibnb`` is the learned search's
#: exact fallback; it is labelled apart so it never mixes with exact-search
#: spans of the ``bnb`` workload.
FALLBACK_LABEL = "ibnb.fallback"

#: Outcome tags recorded per call, read from the return value.
TAGS = {"lp.solve_lp": lambda result: result.status.value}


class Tracer:
    """Installs wrappers, records spans, and restores the originals."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, float, float, int, str | None]] = []
        self.frame = -1                 # index of the frame being solved; -1 is set-up
        self._stack: list[int] = []     # indices into ``spans`` of open spans
        self._ibnb_depth = 0
        self._excluded = 0.0            # seconds reported through exclude() so far
        self._patched: list[tuple[object, str, object]] = []

    def exclude(self, seconds: float) -> None:
        """Take ``seconds`` spent outside the program out of the open spans."""
        self._excluded += seconds

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [sys.modules[name] for name in list(sys.modules)
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name in getattr(module, "__all__", ()):
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for module in modules:
            for name, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((module, name, value))
                    setattr(module, name, hit[1])

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()

    def _wrap(self, label: str, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter
        is_bnb_solve = label == "bnb.solve_bnb"
        is_ibnb = label.startswith("ibnb.")
        tag_of = TAGS.get(label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = FALLBACK_LABEL if is_bnb_solve and self._ibnb_depth else label
            parent = stack[-1] if stack else -1
            frame = self.frame
            index = len(spans)
            spans.append((name, parent, 0.0, 0.0, frame, None))
            stack.append(index)
            if is_ibnb:
                self._ibnb_depth += 1
            result = None
            start = clock()
            excluded = self._excluded
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock() - (self._excluded - excluded)
                if is_ibnb:
                    self._ibnb_depth -= 1
                stack.pop()
                tag = tag_of(result) if tag_of and result is not None else None
                spans[index] = (name, parent, start, end, frame, tag)

        return wrapper

    # -- reduction ----------------------------------------------------------

    def totals(self, scale):
        """Per label: ``[calls, seconds, self seconds]``, and per
        ``(label, tag)`` a call count, over the spans whose frame index is a
        key of ``scale``; durations are multiplied by ``scale[frame]``."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        tags = defaultdict(int)
        for i, (name, parent, start, end, frame, tag) in enumerate(self.spans):
            factor = scale.get(frame)
            if factor is None:
                continue
            entry = out[name]
            entry[0] += 1
            entry[1] += (end - start) * factor
            entry[2] += (end - start - child[i]) * factor
            if tag is not None:
                tags[name, tag] += 1
        return out, tags

    def write(self, path) -> None:
        """Dump the raw spans as CSV."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,label,parent,start_s,end_s,frame,tag\n")
            for i, (name, parent, start, end, frame, tag) in enumerate(self.spans):
                fh.write(f"{i},{name},{parent},{start!r},{end!r},{frame},{tag or ''}\n")
