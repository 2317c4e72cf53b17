"""Seeded app selection and the correctness oracle.

The workload seed picks which ``bench:<index>`` apps run: it draws a
candidate pool of indices, and the apps are taken from that pool at
fixed quantiles of its size distribution (stratified sampling).  Every
seed therefore gets different apps with the same heavy-tailed shape,
which is what keeps medians and p90s comparable from seed to seed.
Apps are addressed by index with the generator's default corpus seed
because a ``POST /v1/jobs`` body can only carry ``bench:<index>`` and a
scale; the in-process workload uses the same recipes so both see the
same corpus.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Iterable, Optional

from repro.workload.corpus import benchmark_app_spec
from repro.workload.generator import AppSpec, generate_app

#: Indices are drawn from ``range(INDEX_SPACE)``.
INDEX_SPACE = 1_000_000
#: Candidates per seed; large enough that the quantile picks land on
#: nearly the same sizes for every seed.
POOL_SIZE = 3000


@dataclasses.dataclass(frozen=True)
class App:
    """One selected app: its recipe and its planted sink instances."""

    index: int
    spec: AppSpec
    #: ``(rule, sink_class, expect_backdroid)`` per planted sink.
    truths: tuple[tuple[str, str, bool], ...]

    @property
    def name(self) -> str:
        return f"bench:{self.index}"


def planted_truths(spec: AppSpec) -> tuple[tuple[str, str, bool], ...]:
    """The spec's planted sinks, without generating its bulk code.

    Patterns are built before filler and draw from the same seeded RNG,
    so a zero-filler copy of the spec plants identical sinks at a small
    fraction of the cost.  :func:`check_planted_truths` verifies that on
    one full app per run.
    """
    light = dataclasses.replace(spec, filler_classes=0, libraries=())
    return _truth_rows(generate_app(light).truths)


def _truth_rows(truths) -> tuple[tuple[str, str, bool], ...]:
    return tuple(
        (t.rule, t.sink_class, bool(t.expect_backdroid))
        for t in truths
        if t.rule is not None
    )


def check_planted_truths(app: App) -> None:
    """Raise unless the cheap truths equal the full generation's."""
    full = _truth_rows(generate_app(app.spec).truths)
    if full != app.truths:
        raise RuntimeError(
            f"{app.name}: planted truths of the zero-filler recipe differ "
            "from the full app's; the oracle cannot use the shortcut"
        )


class Corpus:
    """A seeded candidate pool handing out disjoint stratified picks."""

    def __init__(self, seed: int, scale: float, q_lo: float, q_hi: float):
        self.scale = scale
        self.q_lo, self.q_hi = q_lo, q_hi
        self._rng = random.Random(f"e2ebench:{seed}")
        indices = self._rng.sample(range(INDEX_SPACE), POOL_SIZE)
        self._pool = sorted(
            (benchmark_app_spec(i, scale=scale).filler_classes, i)
            for i in indices
        )
        self._used: set[int] = set()

    def take(self, count: int) -> list[App]:
        """*count* unused apps at evenly spaced quantiles, in seeded
        random order (so a time-ordered run does not sweep by size)."""
        picks = [self._nearest_unused(self._target(k, count))
                 for k in range(count)]
        self._rng.shuffle(picks)
        return [self._app(index) for index in picks]

    def _target(self, k: int, count: int) -> int:
        q = self.q_lo + (self.q_hi - self.q_lo) * (k + 0.5) / count
        return min(int(q * len(self._pool)), len(self._pool) - 1)

    def _nearest_unused(self, position: int) -> int:
        for distance in range(len(self._pool)):
            for pos in (position + distance, position - distance):
                if 0 <= pos < len(self._pool) and pos not in self._used:
                    self._used.add(pos)
                    return self._pool[pos][1]
        raise RuntimeError("candidate pool exhausted")

    def _app(self, index: int) -> App:
        spec = benchmark_app_spec(index, scale=self.scale)
        return App(index=index, spec=spec, truths=planted_truths(spec))


def findings_of(payload_findings: Iterable) -> tuple[tuple[str, str], ...]:
    """Findings as a sorted tuple of ``(rule, class)`` pairs."""
    return tuple(sorted((str(rule), str(cls)) for rule, cls in payload_findings))


class Oracle:
    """Ground-truth agreement plus cross-path consistency checks."""

    def __init__(self) -> None:
        self.agree = 0
        self.total = 0
        self.mismatches: list[str] = []

    def verdicts(
        self, app: App, findings, rules: Optional[Iterable[str]] = None
    ) -> None:
        """Score one job's findings against the planted sinks."""
        found = set(findings_of(findings))
        wanted = set(rules) if rules is not None else None
        for rule, sink_class, expect in app.truths:
            if wanted is not None and rule not in wanted:
                continue
            self.total += 1
            self.agree += ((rule, sink_class) in found) == expect

    def same(self, what: str, app: App, got, want) -> None:
        """Record a mismatch unless two findings lists are identical."""
        if findings_of(got) != findings_of(want):
            self.mismatches.append(
                f"{what} {app.name}: findings {findings_of(got)} != "
                f"{findings_of(want)}"
            )

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.mismatches.append(message)

    @property
    def agreement(self) -> float:
        return self.agree / self.total if self.total else 0.0


@dataclasses.dataclass
class RunResult:
    """What one measured run reports."""

    #: metric name -> ``(value, unit)``.
    metrics: dict
    attempted: int
    failed: int
    oracle: Oracle
    #: Reasons an open-loop run is invalid (empty when valid).
    invalid: list = dataclasses.field(default_factory=list)
    #: Human-readable text printed before the result line.
    report: str = ""
    #: Extra fields for the run record.
    record: dict = dataclasses.field(default_factory=dict)
