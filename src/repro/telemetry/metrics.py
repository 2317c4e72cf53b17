"""The metrics registry: counters, gauges, histograms, Prometheus text.

Instruments are named, typed, and optionally labelled; one registry
instance belongs to one scheduler (no process-global state, so tests
and embedded schedulers never share counters).  The hot path is
deliberately cheap: recording touches only the instrument's own small
lock (series lookup + a float update) — the registry-wide lock is taken
only when an instrument is first created or at scrape time.

Three consumers read a registry:

* ``GET /metrics`` — :meth:`MetricsRegistry.render_prometheus`
  (text exposition format 0.0.4);
* ``GET /v1/stats`` — the scheduler's job counts are read from its
  instruments, and :meth:`MetricsRegistry.as_dict` is embedded under a
  ``"metrics"`` key for backward-compatible JSON scraping;
* gauge callbacks — externally-owned values (lane depth, live store
  counters, worker restarts) are registered once with
  :meth:`Gauge.set_function` and read at scrape time, so migrating an
  existing stat costs no bookkeeping on its hot path at all.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from typing import Callable, Iterable, Optional

from repro.telemetry.quantiles import quantile

#: Default histogram buckets, latency-shaped (seconds): the service's
#: interesting range spans sub-millisecond warm restores to multi-second
#: cold analyses.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: How many recent raw observations each histogram series keeps for
#: quantile queries (buckets alone only bound quantiles).
RECENT_SAMPLE_WINDOW = 512


def _escape_label_value(value: str) -> str:
    return (
        str(value)
        .replace("\\", r"\\")
        .replace("\n", r"\n")
        .replace('"', r'\"')
    )


def _format_value(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def _render_labels(labelnames: tuple, labelvalues: tuple) -> str:
    if not labelnames:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label_value(value)}"'
        for name, value in zip(labelnames, labelvalues)
    )
    return "{" + pairs + "}"


class _Instrument:
    """Shared series bookkeeping for one named instrument."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Iterable[str],
        const_labels: Optional[dict] = None,
    ):
        self.name = name
        self.help = help_text
        self.const_labels = dict(const_labels or {})
        self.labelnames = tuple(self.const_labels) + tuple(labelnames)
        self._lock = threading.Lock()
        self._series: "OrderedDict[tuple, object]" = OrderedDict()

    def _key(self, labels: dict) -> tuple:
        if self.const_labels:
            labels = {**self.const_labels, **labels}
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def _series_items(self) -> list:
        with self._lock:
            return list(self._series.items())


class Counter(_Instrument):
    """A monotonically increasing float (``*_total`` by convention)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            return float(self._series.get(key, 0.0))

    def collect(self) -> list:
        return [
            (key, float(value)) for key, value in self._series_items()
        ]


class Gauge(_Instrument):
    """A value that goes both ways; series may be callback-backed."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            self._series[key] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            current = self._series.get(key, 0.0)
            if callable(current):
                raise ValueError(
                    f"{self.name}{key} is callback-backed; cannot inc()"
                )
            self._series[key] = current + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def set_function(self, fn: Callable[[], float], **labels) -> None:
        """Bind a series to a zero-argument callable read at scrape
        time — how externally-owned values are exported unchanged."""
        key = self._key(labels)
        with self._lock:
            self._series[key] = fn

    def value(self, **labels) -> float:
        key = self._key(labels)
        with self._lock:
            current = self._series.get(key, 0.0)
        return float(current() if callable(current) else current)

    def collect(self) -> list:
        out = []
        for key, value in self._series_items():
            if callable(value):
                try:
                    value = value()
                except Exception:
                    continue  # a dying callback must not break a scrape
            out.append((key, float(value)))
        return out


class Histogram(_Instrument):
    """Cumulative buckets + sum/count + a recent-sample window."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
        const_labels: Optional[dict] = None,
    ) -> None:
        super().__init__(name, help_text, labelnames,
                         const_labels=const_labels)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ValueError("a histogram needs at least one bucket bound")

    def _state(self, key: tuple) -> dict:
        state = self._series.get(key)
        if state is None:
            state = self._series[key] = {
                "buckets": [0] * len(self.buckets),
                "sum": 0.0,
                "count": 0,
                "recent": deque(maxlen=RECENT_SAMPLE_WINDOW),
            }
        return state

    def observe(self, value: float, **labels) -> None:
        key = self._key(labels)
        value = float(value)
        with self._lock:
            state = self._state(key)
            for index, bound in enumerate(self.buckets):
                if value <= bound:
                    state["buckets"][index] += 1
                    break
            state["sum"] += value
            state["count"] += 1
            state["recent"].append(value)

    def quantile(self, fraction: float, **labels) -> Optional[float]:
        """Nearest-rank quantile over the recent-sample window (shares
        :func:`repro.telemetry.quantiles.quantile` and its ``None``
        semantics for sub-two-sample windows)."""
        key = self._key(labels)
        with self._lock:
            state = self._series.get(key)
            recent = list(state["recent"]) if state else []
        return quantile(recent, fraction)

    def sum(self, **labels) -> float:
        """The total of every observation into one series."""
        key = self._key(labels)
        with self._lock:
            state = self._series.get(key)
            return state["sum"] if state else 0.0

    def collect(self) -> list:
        out = []
        with self._lock:
            for key, state in self._series.items():
                out.append(
                    (
                        key,
                        {
                            "buckets": list(state["buckets"]),
                            "sum": state["sum"],
                            "count": state["count"],
                            "recent": list(state["recent"]),
                        },
                    )
                )
        return out


class MetricsRegistry:
    """Get-or-create instruments by name; render them all at once."""

    def __init__(self, const_labels: Optional[dict] = None) -> None:
        """``const_labels`` are stamped on every series of every
        instrument (e.g. ``{"node": "n1"}`` in a cluster node), so one
        scrape endpoint per node stays distinguishable after
        aggregation."""
        self._lock = threading.Lock()
        self.const_labels = dict(const_labels or {})
        self._instruments: "OrderedDict[str, _Instrument]" = OrderedDict()

    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name, help_text, labelnames, **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                expected = tuple(self.const_labels) + tuple(labelnames)
                if not isinstance(existing, cls) or (
                    existing.labelnames != expected
                ):
                    raise ValueError(
                        f"instrument {name!r} already registered as "
                        f"{existing.kind} with labels {existing.labelnames}"
                    )
                return existing
            instrument = cls(
                name, help_text, labelnames,
                const_labels=self.const_labels, **kwargs
            )
            self._instruments[name] = instrument
            return instrument

    def counter(
        self, name: str, help_text: str = "", labelnames: Iterable[str] = ()
    ) -> Counter:
        return self._get_or_create(Counter, name, help_text, labelnames)

    def gauge(
        self, name: str, help_text: str = "", labelnames: Iterable[str] = ()
    ) -> Gauge:
        return self._get_or_create(Gauge, name, help_text, labelnames)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labelnames: Iterable[str] = (),
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(
            Histogram, name, help_text, labelnames, buckets=buckets
        )

    def get(self, name: str) -> Optional[_Instrument]:
        with self._lock:
            return self._instruments.get(name)

    def instruments(self) -> list:
        with self._lock:
            return list(self._instruments.values())

    # ------------------------------------------------------------------
    def render_prometheus(self) -> str:
        """Text exposition format 0.0.4 (the ``GET /metrics`` body)."""
        lines = []
        for instrument in self.instruments():
            if instrument.help:
                lines.append(f"# HELP {instrument.name} {instrument.help}")
            lines.append(f"# TYPE {instrument.name} {instrument.kind}")
            if isinstance(instrument, Histogram):
                for key, state in instrument.collect():
                    cumulative = 0
                    for bound, bucket_count in zip(
                        instrument.buckets, state["buckets"]
                    ):
                        cumulative += bucket_count
                        labels = _render_labels(
                            instrument.labelnames + ("le",),
                            key + (_format_value(bound),),
                        )
                        lines.append(
                            f"{instrument.name}_bucket{labels} {cumulative}"
                        )
                    labels = _render_labels(
                        instrument.labelnames + ("le",), key + ("+Inf",)
                    )
                    lines.append(
                        f"{instrument.name}_bucket{labels} {state['count']}"
                    )
                    plain = _render_labels(instrument.labelnames, key)
                    lines.append(
                        f"{instrument.name}_sum{plain} "
                        f"{_format_value(state['sum'])}"
                    )
                    lines.append(
                        f"{instrument.name}_count{plain} {state['count']}"
                    )
            else:
                for key, value in instrument.collect():
                    labels = _render_labels(instrument.labelnames, key)
                    lines.append(
                        f"{instrument.name}{labels} {_format_value(value)}"
                    )
        return "\n".join(lines) + "\n"

    def as_dict(self) -> dict:
        """JSON-able snapshot for embedding in ``/v1/stats``."""
        out = {}
        for instrument in self.instruments():
            series = []
            if isinstance(instrument, Histogram):
                for key, state in instrument.collect():
                    recent = state["recent"]
                    series.append(
                        {
                            "labels": dict(zip(instrument.labelnames, key)),
                            "count": state["count"],
                            "sum": state["sum"],
                            "p50": quantile(recent, 0.50),
                            "p99": quantile(recent, 0.99),
                        }
                    )
            else:
                for key, value in instrument.collect():
                    series.append(
                        {
                            "labels": dict(zip(instrument.labelnames, key)),
                            "value": value,
                        }
                    )
            out[instrument.name] = {
                "type": instrument.kind,
                "help": instrument.help,
                "series": series,
            }
        return out
