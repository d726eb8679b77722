"""Spans around calls into qcausal's layers, recorded from outside the package.

``Tracer.install`` replaces every module-level binding of the traced functions
across the loaded ``qcausal`` modules (``choi`` is bound in ``channels``,
``report``, ``causality``, ``twirl`` and others), so a call is timed whichever
module makes it. ``uninstall`` puts the originals back, so untraced rounds in
the same process run the unmodified code. Spans stay in memory until the
worker writes them out at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

# (module, function, whether a non-None result counts as "found")
TRACED = [
    ("channels", "choi", False),
    ("channels", "validate", False),
    ("causality", "semicausal_test", False),
    ("causality", "signaling_search", True),
    ("measurements", "semicausal_basis_test", False),
    ("measurements", "causal_structure", False),
    ("measurements", "basis_signaling_witness", False),
    ("localizability", "closure_obstruction_search", True),
    ("localizability", "eigenstate_closure_test", False),
    ("localizability", "extract_unitaries", False),
    ("localizability", "projective_group_test", False),
    ("games", "channel_game_value", False),
    ("serialize", "load_document", False),
    ("report", "classify_basis", False),
    ("report", "classify_channel", False),
]

# Span fields: name, start, end, parent index (-1 at the root), request index, found.
NAME, START, END, PARENT, REQUEST, FOUND = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.request, False])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int, found: bool = False) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[FOUND] = found
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str, request: int):
        """The span of one whole request; spans opened inside it share its index."""
        self.request = request
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn, counts_found: bool):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(index, counts_found and result is not None)

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "qcausal" or key.startswith("qcausal.")]
        for module_name, fn_name, counts_found in TRACED:
            original = getattr(sys.modules[f"qcausal.{module_name}"], fn_name)
            wrapper = self._wrap(f"{module_name}.{fn_name}", original, counts_found)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        basis_cls = sys.modules["qcausal.measurements"].OrthogonalBasis
        init = basis_cls.__post_init__
        self._patched.append((basis_cls, "__post_init__", init))
        basis_cls.__post_init__ = self._wrap("measurements.OrthogonalBasis", init, False)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals of one run: busy seconds, call counts and found counts.

    Busy seconds of a function are the durations of its spans that are not
    nested in a span of the same function. ``report.self_s`` and ``cli.self_s``
    are self times: the span minus the part its child spans cover.
    """
    children: dict[int, float] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]] = children.get(span[PARENT], 0.0) + span[END] - span[START]

    def outermost(index: int) -> bool:
        name, parent = spans[index][NAME], spans[index][PARENT]
        while parent >= 0:
            if spans[parent][NAME] == name:
                return False
            parent = spans[parent][PARENT]
        return True

    busy: dict[str, float] = {}
    calls: dict[str, int] = {}
    found: dict[str, int] = {}
    self_time = {"report": 0.0, "cli": 0.0}
    for index, span in enumerate(spans):
        name = span[NAME]
        duration = span[END] - span[START]
        calls[name] = calls.get(name, 0) + 1
        found[name] = found.get(name, 0) + int(span[FOUND])
        if outermost(index):
            busy[name] = busy.get(name, 0.0) + duration
        if name in ("report.classify_basis", "report.classify_channel"):
            self_time["report"] += duration - children.get(index, 0.0)
        elif name == "cli.main":
            self_time["cli"] += duration - children.get(index, 0.0)

    def s(name: str) -> float:
        return busy.get(name, 0.0)

    return {
        "channels.choi_s": s("channels.choi"),
        "channels.choi_calls": calls.get("channels.choi", 0),
        "channels.validate_s": s("channels.validate"),
        "causality.semicausal_test_s": s("causality.semicausal_test"),
        "causality.semicausal_test_calls": calls.get("causality.semicausal_test", 0),
        "causality.signaling_search_s": s("causality.signaling_search"),
        "causality.signaling_search_calls": calls.get("causality.signaling_search", 0),
        "causality.signaling_search_found": found.get("causality.signaling_search", 0),
        "measurements.OrthogonalBasis_s": s("measurements.OrthogonalBasis"),
        "measurements.semicausal_basis_test_s": s("measurements.semicausal_basis_test"),
        "measurements.causal_structure_s": s("measurements.causal_structure"),
        "measurements.basis_signaling_witness_s": s("measurements.basis_signaling_witness"),
        "localizability.closure_obstruction_search_s": s("localizability.closure_obstruction_search"),
        "localizability.eigenstate_closure_test_calls":
            calls.get("localizability.eigenstate_closure_test", 0),
        "localizability.closure_certificates": found.get("localizability.closure_obstruction_search", 0),
        "localizability.extract_unitaries_s": s("localizability.extract_unitaries"),
        "localizability.projective_group_test_s": s("localizability.projective_group_test"),
        "games.channel_game_value_s": s("games.channel_game_value"),
        "serialize.load_document_s": s("serialize.load_document"),
        "report.self_s": self_time["report"],
        "cli.self_s": self_time["cli"],
    }
