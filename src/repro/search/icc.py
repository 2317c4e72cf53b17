"""The two-time ICC search (Sec. IV-D).

ICC calls (``startService`` and friends) cannot be located by callee
signature: the target component is chosen by the *Intent parameter* —
explicitly via a component class (``new Intent(ctx,
HttpServerService.class)``) or implicitly via an action string the OS
resolves against manifest intent filters.

The paper's mechanism launches two searches and merges them:

1. search the ICC *calls* (``startService:``, ``startActivity:``, ...)
   by method name, whatever the receiver class: the needle
   ``;.startService:(`` lies inside the signature of every such call,
   so the token index answers it, and each hit line must be an
   ``invoke-*`` whose callee has that name
   (:meth:`~repro.search.index.BytecodeSearcher.find_invocations_by_name`);
2. search the ICC *parameters* — ``const-class .*,
   Lcom/lge/app1/fota/HttpServerService;`` for explicit ICC, or
   ``const-string`` of the matching action names for implicit ICC.

A method appearing in both result sets hosts the ICC call we are looking
for.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.android.framework import ICC_CALL_APIS, component_kind_of
from repro.android.manifest import Manifest
from repro.dex.hierarchy import ClassPool
from repro.dex.types import MethodSignature
from repro.search.common import CallSite
from repro.search.index import BytecodeSearcher


@dataclass(frozen=True)
class IccCallSite:
    """A matched ICC call: where, which API, and how the target matched."""

    caller: MethodSignature
    stmt_index: int
    icc_api: str
    #: ``"explicit"`` (const-class) or ``"implicit"`` (action string).
    match_kind: str


def _icc_apis_for_component(pool: ClassPool, component_class: str) -> list[str]:
    """Which ICC APIs can launch this component (by its base class)."""
    base = component_kind_of(pool, component_class)
    return [api for api, target in ICC_CALL_APIS.items() if target == base]


def icc_search(
    searcher: BytecodeSearcher,
    pool: ClassPool,
    manifest: Manifest,
    component_class: str,
) -> list[IccCallSite]:
    """Find the methods that launch *component_class* via ICC."""
    apis = _icc_apis_for_component(pool, component_class)
    if not apis:
        return []

    # --- first search: ICC calls --------------------------------------
    call_hits: dict[tuple[MethodSignature, str], list] = {}
    for api in apis:
        for hit in searcher.find_invocations_by_name(api):
            if hit.method is None:
                continue
            call_hits.setdefault((hit.method, api), []).append(hit)

    # --- second search: ICC parameters --------------------------------
    explicit_methods: set[MethodSignature] = set()
    for hit in searcher.find_const_class(component_class):
        if hit.method is not None:
            explicit_methods.add(hit.method)

    implicit_methods: set[MethodSignature] = set()
    component = manifest.component(component_class)
    if component is not None:
        for intent_filter in component.intent_filters:
            for action in intent_filter.actions:
                for hit in searcher.find_const_string(action):
                    if hit.method is not None:
                        implicit_methods.add(hit.method)

    # --- merge ----------------------------------------------------------
    sites: list[IccCallSite] = []
    for (method, api), hits in sorted(
        call_hits.items(), key=lambda item: (str(item[0][0]), item[0][1])
    ):
        if method in explicit_methods:
            match_kind = "explicit"
        elif method in implicit_methods:
            match_kind = "implicit"
        else:
            continue
        stmt_index = hits[0].stmt_index if hits[0].stmt_index is not None else 0
        sites.append(
            IccCallSite(
                caller=method,
                stmt_index=stmt_index,
                icc_api=api,
                match_kind=match_kind,
            )
        )
    return sites
