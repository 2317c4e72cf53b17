"""The composable per-request analysis description.

An :class:`AnalysisRequest` names *what to analyze and how* for one run
against an already-opened app — decoupled from
:class:`~repro.core.backdroid.BackDroidConfig`, which froze targets at
construction time.  Requests are small frozen dataclasses: cheap to
build, hashable/picklable (they cross process and HTTP boundaries),
and composable — many differently-targeted requests can be served by one
:class:`~repro.api.session.AnalysisSession` without rebuilding any
per-app state.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import Optional

from repro.android.framework import SinkSpec
from repro.core.backdroid import BackDroidConfig
from repro.search.backends import BACKENDS

#: The paper's default rule families (Sec. VI-A).
DEFAULT_RULES = ("crypto-ecb", "ssl-verifier")

#: Upper bound on client-supplied backward-walk budgets (a request rides
#: over HTTP; an absurd budget must not wedge a worker lane).
MAX_REQUEST_FRAMES = 1_000_000


@dataclass(frozen=True)
class AnalysisRequest:
    """One analysis run's targets and knobs.

    ``targets`` (explicit :class:`SinkSpec` tuples) override ``rules``
    when set, mirroring ``BackDroidConfig.sinks`` vs ``sink_rules``.
    ``backend=None`` defers to the session's default backend.
    """

    rules: tuple[str, ...] = DEFAULT_RULES
    targets: Optional[tuple[SinkSpec, ...]] = None
    backend: Optional[str] = None
    max_frames: int = 4000
    check_class_hierarchy: bool = False
    enable_search_cache: bool = True
    enable_sink_cache: bool = True
    collect_ssg_dumps: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "rules", tuple(self.rules))
        if self.targets is not None:
            object.__setattr__(self, "targets", tuple(self.targets))
        if self.max_frames < 1:
            raise ValueError("max_frames must be a positive integer")
        if self.backend is not None and self.backend not in BACKENDS:
            raise ValueError(
                f"unknown search backend {self.backend!r}: "
                f"choose from {sorted(BACKENDS)}"
            )

    # ------------------------------------------------------------------
    def sink_specs(self, registry) -> tuple[SinkSpec, ...]:
        """The sink specs this request targets, under *registry*."""
        if self.targets is not None:
            return self.targets
        return registry.specs_for(self.rules)

    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, config: BackDroidConfig) -> "AnalysisRequest":
        """The request equivalent of a legacy config (compat bridge)."""
        return cls(
            rules=tuple(config.sink_rules),
            targets=config.sinks,
            backend=config.search_backend,
            max_frames=config.max_frames,
            check_class_hierarchy=config.check_class_hierarchy_in_initial_search,
            enable_search_cache=config.enable_search_cache,
            enable_sink_cache=config.enable_sink_cache,
            collect_ssg_dumps=config.collect_ssg_dumps,
        )

    def to_config(self, base: Optional[BackDroidConfig] = None) -> BackDroidConfig:
        """A legacy config with this request's knobs applied over *base*.

        Session-level knobs not owned by requests (store directory/mode,
        search-cache bound) are inherited from *base* untouched.
        """
        base = base if base is not None else BackDroidConfig()
        return dataclasses.replace(
            base,
            sink_rules=self.rules,
            sinks=self.targets,
            search_backend=self.backend or base.search_backend,
            max_frames=self.max_frames,
            check_class_hierarchy_in_initial_search=self.check_class_hierarchy,
            enable_search_cache=self.enable_search_cache,
            enable_sink_cache=self.enable_sink_cache,
            collect_ssg_dumps=self.collect_ssg_dumps,
        )

    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """A stable digest of every analysis-affecting request field.

        Used for job dedup (two submissions of one app coalesce only
        when their requests match) and outcome-cache keys.
        """
        parts = (
            repr(tuple(self.rules)),
            repr(
                tuple((s.rule, s.key, s.tracked_params) for s in self.targets)
                if self.targets is not None
                else None
            ),
            repr(self.backend),
            repr(self.max_frames),
            repr(self.check_class_hierarchy),
            repr(self.enable_search_cache),
            repr(self.enable_sink_cache),
        )
        return hashlib.sha256("|".join(parts).encode()).hexdigest()[:16]

    # ------------------------------------------------------------------
    def as_dict(self) -> dict:
        """A JSON-able snapshot (job records, envelopes)."""
        from repro.api.envelope import spec_to_dict

        return {
            "rules": list(self.rules),
            "targets": (
                [spec_to_dict(s) for s in self.targets]
                if self.targets is not None
                else None
            ),
            "backend": self.backend,
            "max_frames": self.max_frames,
            "check_class_hierarchy": self.check_class_hierarchy,
            "enable_search_cache": self.enable_search_cache,
            "enable_sink_cache": self.enable_sink_cache,
            "collect_ssg_dumps": self.collect_ssg_dumps,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AnalysisRequest":
        """Rebuild a request from its :meth:`as_dict` payload.

        The inverse of ``as_dict`` (exact round trip); unknown keys are
        ignored, absent ones take the request defaults.
        """
        from repro.api.envelope import spec_from_dict

        targets = payload.get("targets")
        return cls(
            rules=tuple(str(r) for r in payload.get("rules", DEFAULT_RULES)),
            targets=(
                tuple(spec_from_dict(t) for t in targets)
                if targets is not None
                else None
            ),
            backend=payload.get("backend"),
            max_frames=int(payload.get("max_frames", 4000)),
            check_class_hierarchy=bool(
                payload.get("check_class_hierarchy", False)
            ),
            enable_search_cache=bool(payload.get("enable_search_cache", True)),
            enable_sink_cache=bool(payload.get("enable_sink_cache", True)),
            collect_ssg_dumps=bool(payload.get("collect_ssg_dumps", False)),
        )


#: Keys a ``POST /v1/jobs`` body may use to override the service's
#: default targets/knobs for one job.
REQUEST_OVERRIDE_KEYS = ("rules", "backend", "max_frames", "hierarchy")


def analysis_request_from_payload(
    payload: dict,
    known_rules: Optional[tuple[str, ...]] = None,
    defaults: Optional[AnalysisRequest] = None,
) -> Optional[AnalysisRequest]:
    """The per-job :class:`AnalysisRequest` a service submission names.

    Returns None when the body carries no override keys (the job runs
    under the service's configured defaults).  Otherwise the overrides
    are layered onto *defaults* — the service's own configuration — so
    a body naming only ``max_frames`` does not silently reset the
    operator's rule selection (or any other knob) to package defaults.
    Raises ``ValueError`` with a client-facing message on malformed
    overrides; the HTTP layer maps that to a 400.
    """
    if not any(key in payload for key in REQUEST_OVERRIDE_KEYS):
        return None

    kwargs: dict = {}
    if "rules" in payload:
        rules = payload["rules"]
        if (
            not isinstance(rules, (list, tuple))
            or not rules
            or not all(isinstance(r, str) for r in rules)
        ):
            raise ValueError("'rules' must be a non-empty list of rule ids")
        if known_rules is not None:
            unknown = [r for r in rules if r not in known_rules]
            if unknown:
                raise ValueError(
                    f"unknown rule(s) {unknown}: choose from {sorted(known_rules)}"
                )
        kwargs["rules"] = tuple(rules)
        # Explicit targets inherited from the defaults would shadow the
        # overridden rules (sink_specs gives targets precedence) — a
        # rules override always means "analyze these rule families".
        kwargs["targets"] = None
    if "backend" in payload:
        backend = payload["backend"]
        if not isinstance(backend, str) or backend not in BACKENDS:
            raise ValueError(
                f"'backend' must be one of {sorted(BACKENDS)}"
            )
        kwargs["backend"] = backend
    if "max_frames" in payload:
        frames = payload["max_frames"]
        if (
            isinstance(frames, bool)
            or not isinstance(frames, int)
            or not 0 < frames <= MAX_REQUEST_FRAMES
        ):
            raise ValueError(
                f"'max_frames' must be an integer in [1, {MAX_REQUEST_FRAMES}]"
            )
        kwargs["max_frames"] = frames
    if "hierarchy" in payload:
        if not isinstance(payload["hierarchy"], bool):
            raise ValueError("'hierarchy' must be a boolean")
        kwargs["check_class_hierarchy"] = payload["hierarchy"]
    base = defaults if defaults is not None else AnalysisRequest()
    return dataclasses.replace(base, **kwargs)
