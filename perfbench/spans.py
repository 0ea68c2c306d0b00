"""In-memory span recording and the wrappers that time calls into medrank.

Nothing here edits medrank or its module globals. The benchmark wraps the
objects it builds and passes them in: the provider, the EntailmentIndex,
each child of the encoder and head ``Sequential``s, and the trainer's
optimizer. A span is ``[name, start, end, parent, question_id]``; the root
spans are the workload stages.
"""

from __future__ import annotations

import gzip
import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np


class Tracer:
    """Spans and counters kept in memory until the run writes them out."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.question_id: str | None = None
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.question_id])
        self._stack.append(index)
        return index

    def end(self, index: int) -> float:
        """Close a span, and any child an exception left open inside it."""
        if index not in self._stack:
            raise RuntimeError(f"span {self.spans[index][0]!r} is not open")
        now = time.perf_counter()
        while self._stack[-1] != index:
            self.spans[self._stack.pop()][2] = now
        self._stack.pop()
        span = self.spans[index]
        span[2] = now
        return span[2] - span[1]

    @contextmanager
    def span(self, name: str, question_id: str | None = None):
        previous = self.question_id
        if question_id is not None:
            self.question_id = question_id
        index = self.begin(name)
        try:
            yield
        finally:
            self.end(index)
            self.question_id = previous

    def _self_seconds(self) -> list[float]:
        """Each span's duration minus the durations of its children."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        totals: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans, self._self_seconds()):
            totals[span[0]] += own
        return dict(totals)

    def reconcile(
        self, stage_walls: dict[str, list[float]], tolerance: float, floor_s: float
    ) -> dict:
        """Check that each stage's span self times sum to its measured wall time.

        ``stage_walls`` maps a stage name to the wall times the benchmark
        measured for it, in run order. A stage passes when the gap is within
        ``tolerance`` of its wall time or within ``floor_s``, whichever is
        larger; returns the worst relative gap and whether all stages passed.
        """
        subtree_self = self._self_seconds()
        # Children are appended after their parent, so a reverse pass folds
        # every subtree into its root.
        for i in range(len(self.spans) - 1, -1, -1):
            parent = self.spans[i][3]
            if parent >= 0:
                subtree_self[parent] += subtree_self[i]
        roots: dict[str, list[float]] = defaultdict(list)
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            if parent < 0:
                roots[name].append(subtree_self[i])
        worst = 0.0
        ok = True
        for stage, walls in stage_walls.items():
            sums = roots.get(stage, [])
            if len(sums) != len(walls):
                ok = False
                continue
            for total, wall in zip(sums, walls):
                gap = abs(total - wall)
                worst = max(worst, gap / wall if wall > 0 else 0.0)
                ok = ok and gap <= max(tolerance * wall, floor_s)
        return {"ok": ok, "worst_gap": worst, "tolerance": tolerance, "floor_s": floor_s}

    def write(self, path) -> None:
        """Write spans as gzipped JSON with an interned name table."""
        names: dict[str, int] = {}
        rows = []
        for name, start, end, parent, question_id in self.spans:
            code = names.setdefault(name, len(names))
            rows.append([code, start, end, parent, question_id])
        payload = {
            "fields": ["name", "start", "end", "parent", "question_id"],
            "names": list(names),
            "spans": rows,
            "counts": dict(self.counts),
        }
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle)


class _Proxy:
    """Forwards every attribute it does not define to the wrapped object."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


class TracedProvider(_Proxy):
    """Times NLI and RQE calls and counts distinct text pairs."""

    def __init__(self, inner, tracer: Tracer):
        super().__init__(inner, tracer)
        self._seen: set[tuple[str, str]] = set()

    def _note(self, kind: str, text_a: str, text_b: str) -> None:
        self._tracer.counts[f"providers.{kind}_calls"] += 1
        key = (text_a, text_b)
        if key not in self._seen:
            self._seen.add(key)
            self._tracer.counts["providers.distinct_pairs"] += 1

    def nli(self, sentence_a: str, sentence_b: str):
        self._note("nli", sentence_a, sentence_b)
        with self._tracer.span("providers.nli"):
            return self._inner.nli(sentence_a, sentence_b)

    def rqe(self, chq: str, faq: str):
        self._note("rqe", chq, faq)
        with self._tracer.span("providers.rqe"):
            return self._inner.rqe(chq, faq)


class TracedIndex(_Proxy):
    """Times corpus scoring; counts pairs scored, covered queries, kept hits.

    ``retrieve`` calls ``scores`` once per query, then ``_score`` again for
    each pair it keeps, so calls to ``_score`` outside ``scores`` are the
    kept results.
    """

    def scores(self, query: str, config) -> np.ndarray:
        with self._tracer.span("retrieval.scores"):
            scores = self._inner.scores(query, config)
        counts = self._tracer.counts
        counts["retrieval.queries"] += 1
        counts["retrieval.pairs_scored"] += len(scores)
        counts["retrieval.covered"] += int(bool(np.any(scores >= config.T)))
        return scores

    def _score(self, query, pair, config):
        self._tracer.counts["retrieval.kept"] += 1
        return self._inner._score(query, pair, config)


class TracedLayer(_Proxy):
    """One child of a ``Sequential``: forward and backward become spans.

    Parameter, buffer and flag traversal reach the wrapped layer through
    attribute forwarding, so names, checkpoints and optimizers are unchanged.
    """

    def __init__(self, inner, tracer: Tracer, name: str, count_rows: bool = False):
        super().__init__(inner, tracer)
        self._fwd = f"{name}.fwd"
        self._bwd = f"{name}.bwd"
        self._rows = f"{name}.rows" if count_rows else None

    def forward(self, x):
        counts = self._tracer.counts
        counts[self._fwd] += 1
        if self._rows is not None:
            counts[self._rows] += x.shape[0]
        with self._tracer.span(self._fwd):
            return self._inner.forward(x)

    def backward(self, grad_out):
        with self._tracer.span(self._bwd):
            return self._inner.backward(grad_out)


class TracedOptimizer(_Proxy):
    """Spans zero_grad and step; a training step runs from one to the other.

    The trainer calls ``zero_grad`` then ``step`` once per prepared
    question, in order, so the step count names the question.
    """

    def __init__(self, inner, tracer: Tracer, question_ids: list[str]):
        super().__init__(inner, tracer)
        self._question_ids = question_ids
        self._steps = 0
        self._open = -1

    def zero_grad(self) -> None:
        ids = self._question_ids
        self._tracer.question_id = ids[self._steps % len(ids)] if ids else None
        self._open = self._tracer.begin("joint.step")
        with self._tracer.span("tensornet.optimizer.zero_grad"):
            self._inner.zero_grad()

    def step(self) -> None:
        with self._tracer.span("tensornet.optimizer.step"):
            self._inner.step()
        seconds = self._tracer.end(self._open)
        self._tracer.samples["joint.step_ms"].append(1e3 * seconds)
        self._steps += 1
        self._tracer.question_id = None


def instrument_model(model, tracer: Tracer) -> None:
    """Wrap every child of the encoder stack and of both heads in place."""
    for prefix, seq in (
        ("tensornet.encoder", model.encoder.stack),
        ("tensornet.filter_head", model.filter_head),
        ("tensornet.pair_head", model.pair_head),
    ):
        seq.layers = [
            TracedLayer(layer, tracer, f"{prefix}.{name}", count_rows=name == "linear1")
            for layer, name in zip(seq.layers, seq.names)
        ]
