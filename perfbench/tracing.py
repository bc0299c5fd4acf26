"""In-memory spans recorded from the benchmark's side of the library surface.

Spans are recorded around the public calls the harness makes (one root span
per operation) and, in the traced run only, around public methods wrapped
inside this process: ``Domain.call``, ``ConstraintSolver.is_satisfiable``,
``ConstraintSolver.evaluate_ground``, ``WriteAheadLog.append`` and
``SnapshotStore.write_checkpoint`` / ``load_current``.  A span's name is ``<layer>.<call>``, where the layer is
the module under ``src/repro/`` that owns the call.  Nothing under ``src/``
is touched; spans inside the algorithm phases are not recorded here.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter
from typing import Dict, List


class Tracer:
    """Records spans while :attr:`active`; a pass-through otherwise."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index, operation id]`` per span.
        self.spans: List[list] = []
        #: Operation id -> operation kind (``update``, ``query``, ...).
        self.operations: List[str] = []
        self.active = False
        self._stack: List[int] = []
        self._restore: List[tuple] = []

    def begin_operation(self, kind: str) -> None:
        self.operations.append(kind)

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, len(self.operations) - 1])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def call(self, name: str, function, *args, **kwargs):
        """Run ``function(*args, **kwargs)`` inside a span when active."""
        if not self.active:
            return function(*args, **kwargs)
        index = self.open(name)
        try:
            return function(*args, **kwargs)
        finally:
            self.close(index)

    def wrap(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by a span-recording wrapper."""
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            index = tracer.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(index)

        setattr(owner, attribute, wrapper)
        self._restore.append((owner, attribute, original))

    def unwrap(self) -> None:
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    # -- reading the spans back ----------------------------------------
    def self_seconds_by_layer(self, kinds) -> Dict[str, float]:
        """Each span's duration minus its children's, summed per layer,
        over the operations of the given kinds."""
        children = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for (name, start, end, _, operation), inner in zip(self.spans, children):
            if self.operations[operation] in kinds:
                totals[name.split(".", 1)[0]] += (end - start) - inner
        return dict(totals)

    def durations(self, name: str, kind: str = "") -> List[float]:
        return [
            end - start
            for span_name, start, end, _, operation in self.spans
            if span_name == name and (not kind or self.operations[operation] == kind)
        ]

    def write(self, path) -> None:
        """A header line, then one JSON array per span in start order."""
        with open(path, "w", encoding="utf-8") as handle:
            header = {
                "fields": ["id", "name", "start", "end", "parent", "operation"],
                "operations": self.operations,
            }
            handle.write(json.dumps(header) + "\n")
            for index, span in enumerate(self.spans):
                handle.write(json.dumps([index] + span) + "\n")
