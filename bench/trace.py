"""Span recorder for the traced run, installed from ``bench/`` only.

Nothing under ``src/`` knows about tracing: :func:`install` replaces
the public callables at each layer boundary with timing wrappers
(instance attributes wherever the class allows, two module attributes
where a function is looked up by name) and :func:`uninstall` puts the
originals back.

One *root* span covers one harness operation (a publish, a churn op,
set-up, recovery).  Under a root, spans with the same name and the same
parent are merged into one node — a notification fan-out of 75
``notifications.notify`` calls is one node with ``count == 75`` — so a
publication is a tree of at most a few dozen nodes however large its
expansion was.  A node is flushed as the record

    (name, start, end, parent, op, count, self_s)

where ``end - start`` is the node's summed busy time (for a merged node
the interval is therefore shorter than first-entry to last-exit),
``parent`` indexes the parent's record (``-1`` for a root), ``op`` is
the harness operation index, and ``self_s`` is busy time minus the busy
time of the node's children.  Self times of a tree sum to its root's
busy time by construction.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

__all__ = ["Recorder", "install", "uninstall", "layer_of"]

_now = time.perf_counter


class _Node:
    __slots__ = ("name", "parent", "start", "busy", "self_s", "count")

    def __init__(self, name: str, parent: "_Node | None", start: float) -> None:
        self.name = name
        self.parent = parent
        self.start = start
        self.busy = 0.0
        self.self_s = 0.0
        self.count = 0


class Recorder:
    """In-memory span store; see the module docstring for the record
    shape."""

    def __init__(self) -> None:
        self.records: list[tuple] = []
        self.op = -1
        #: generator wrappers time their items only while this is set
        #: (the harness sets it on a sample of operations)
        self.detail = True
        #: span enter/exit pairs recorded (the overhead estimate's base)
        self.events = 0
        self._stack: list[list] = []  # [node, started, child_busy]
        self._nodes: dict[tuple, _Node] = {}
        self._restore: list[tuple] = []

    # -- recording ---------------------------------------------------------------

    def _enter(self, name: str, started: float | None = None) -> list:
        stack = self._stack
        parent = stack[-1][0] if stack else None
        key = (id(parent), name)
        node = self._nodes.get(key)
        if started is None:
            started = _now()
        if node is None:
            node = self._nodes[key] = _Node(name, parent, started)
        frame = [node, started, 0.0]
        stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        busy = _now() - frame[1]
        stack = self._stack
        stack.pop()
        node = frame[0]
        node.busy += busy
        node.self_s += busy - frame[2]
        node.count += 1
        self.events += 1
        if stack:
            stack[-1][2] += busy
        else:
            self._flush()

    def _flush(self) -> None:
        index_of: dict[int, int] = {}
        records = self.records
        for node in self._nodes.values():  # insertion order: parents first
            index_of[id(node)] = len(records)
            parent = -1 if node.parent is None else index_of[id(node.parent)]
            records.append(
                (
                    node.name,
                    node.start,
                    node.start + node.busy,
                    parent,
                    self.op,
                    node.count,
                    node.self_s,
                )
            )
        self._nodes.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of harness code (a root span when no
        other is open: set-up, recovery)."""
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame)

    def wrap(self, name: str, fn):
        """*fn* timed as one span per call."""
        enter, leave = self._enter, self._exit

        def traced(*args, **kwargs):
            frame = enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(frame)

        return traced

    def wrap_generator(self, name: str, fn):
        """A generator function timed per ``next()``: the time the
        consumer spends between two items is the consumer's, not the
        generator's."""
        enter, leave = self._enter, self._exit

        def timed(inner):
            try:
                while True:
                    frame = enter(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        leave(frame)
                    yield item
            finally:
                inner.close()

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            return timed(inner) if self.detail else inner

        return traced

    def wrap_rebuild(self, name: str, fn):
        """A cached getter whose rare rebuild is the work of interest
        (``kb.concept_table()`` is one version compare on every call but
        the first after the knowledge base moved): only a call that
        returns a different object than the previous one becomes a
        span, so no private state is read to tell the two apart."""
        last = [None]

        def traced():
            started = _now()
            value = fn()
            if value is not last[0]:
                last[0] = value
                self._exit(self._enter(name, started))
            return value

        return traced

    def per_event_cost(self, samples: int = 20000) -> float:
        """Measured cost of one empty span, for the overhead estimate.
        Run after the timed phase; the calibration spans are dropped."""
        kept, events = len(self.records), self.events
        noop = self.wrap("calibration", lambda: None)
        with self.span("calibration.root"):
            started = _now()
            for _ in range(samples):
                noop()
            elapsed = _now() - started
        del self.records[kept:]
        self.events = events
        started = _now()
        for _ in range(samples):
            pass
        return max(0.0, elapsed - (_now() - started)) / samples

    # -- patching ------------------------------------------------------------------

    def patch(self, owner, attribute: str, name: str, *, wrap=None) -> None:
        """Replace ``owner.attribute`` with its timed wrapper (*wrap*
        picks the wrapper kind, default :meth:`wrap`), remembering how
        to undo it."""
        original = getattr(owner, attribute)
        had_own = attribute in vars(owner)
        setattr(owner, attribute, (wrap or self.wrap)(name, original))
        self._restore.append((owner, attribute, original if had_own else None, had_own))

    def unpatch_all(self) -> None:
        while self._restore:
            owner, attribute, original, had_own = self._restore.pop()
            if had_own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)

    # -- reading ---------------------------------------------------------------------

    def totals(self, ops=None, root: str | None = None) -> dict[str, list]:
        """``{span name: [busy_s, self_s, count]}`` summed over records,
        optionally only those of operations in *ops* and/or under a
        root span called *root*.  A span that never ran reads zeros."""
        records = self.records
        totals: dict[str, list] = defaultdict(lambda: [0.0, 0.0, 0])
        root_name: dict[int, str] = {}
        for index, (name, start, end, parent, op, count, self_s) in enumerate(records):
            top = name if parent < 0 else root_name[parent]
            root_name[index] = top
            if ops is not None and op not in ops:
                continue
            if root is not None and top != root:
                continue
            entry = totals[name]
            entry[0] += end - start
            entry[1] += self_s
            entry[2] += count
        return totals

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "op", "count", "self_s"],
                    "spans": self.records,
                },
                handle,
            )


def layer_of(span_name: str) -> str:
    """Spans are named ``<layer>.<call>``; the layers are the repo's
    modules."""
    return span_name.split(".", 1)[0]


def install_kb(recorder: Recorder, kb) -> None:
    """Knowledge-base side wrappers; installed before the broker is
    built so the first snapshot build is seen."""
    import repro.ontology.concept_table as concept_table

    recorder.patch(kb, "concept_table", "concept_table.build", wrap=recorder.wrap_rebuild)
    # closure fills: the two functions a ConceptTable (slotted, so not
    # patchable per instance) calls on a closure-memo miss and never on
    # a hit — ancestors() asks kb.generalizations, descent() and
    # descent_map() ask descent_closure.
    recorder.patch(kb, "generalizations", "concept_table.closure")
    recorder.patch(concept_table, "descent_closure", "concept_table.closure")


def install(recorder: Recorder, broker) -> None:
    """Broker-side wrappers around each layer's public calls."""
    import repro.broker.broker as broker_module

    recorder.patch(broker, "publish", "broker.publish")
    recorder.patch(broker, "subscribe", "broker.subscribe")
    recorder.patch(broker, "unsubscribe", "broker.unsubscribe")
    recorder.patch(broker_module, "parse_event", "model.parse_event")
    if broker.durability is not None:
        recorder.patch(broker.durability, "append", "durability.append")
        recorder.patch(broker.durability, "compact", "durability.compact")
    recorder.patch(broker.dispatcher, "publish", "dispatcher.publish")
    recorder.patch(broker.notifier, "notify", "notifications.notify")
    engine = broker.engine
    replicas = getattr(engine, "engines", None)
    if replicas is None:
        recorder.patch(engine, "publish", "engine.publish")
        replicas = (engine,)
    else:
        # the process plane's publish work runs in forked workers the
        # parent cannot see into; the parent-side replicas still do the
        # control-plane half of every churn op
        recorder.patch(engine, "publish", "sharding.publish")
    for replica in replicas:
        pipeline = replica.pipeline
        recorder.patch(pipeline, "process_event", "pipeline.process_event")
        recorder.patch(pipeline.synonyms, "rewrite_event", "pipeline.synonyms")
        per_next = recorder.wrap_generator
        recorder.patch(pipeline.hierarchy, "expand", "pipeline.hierarchy", wrap=per_next)
        recorder.patch(pipeline.mappings, "expand", "pipeline.mappings", wrap=per_next)
        recorder.patch(replica.matcher, "match_batch", "matching.match_batch")
        recorder.patch(replica.matcher, "insert", "matching.insert")
        recorder.patch(replica.matcher, "remove", "matching.remove")
        if replica.interest is not None:
            recorder.patch(replica.interest, "add", "interest.add")
            recorder.patch(replica.interest, "remove", "interest.remove")


def uninstall(recorder: Recorder) -> None:
    recorder.unpatch_all()
