"""BackDroid's dataflow layer (Sec. V) and public driver.

On top of the search-based inter-procedural analysis, this package
adjusts the traditional backward slicing and forward analysis:

* :mod:`repro.core.ssg` — the self-contained slicing graph (SSG):
  hierarchical taint map, inter-procedural relationships, raw typed
  bytecode statements (``SSGUnit``), and the special static-initializer
  track (Sec. V-A);
* :mod:`repro.core.slicer` — the adjusted backward taint analysis over
  fields, arrays and contained methods that generates SSGs;
* :mod:`repro.core.values` — dataflow facts: constants, ``NewObj`` /
  ``ArrayObj`` points-to objects, merged facts (Sec. V-B);
* :mod:`repro.core.api_models` — modeled Java/Android APIs
  (``StringBuilder``, ``String.valueOf``, ...) used when mimicking
  statement semantics;
* :mod:`repro.core.forward` — forward constant + points-to propagation
  over the SSG (Sec. V-B);
* :mod:`repro.core.detectors` — the crypto-ECB and SSL-verifier rules of
  the Sec. VI evaluation;
* :mod:`repro.core.backdroid` — the top-level ``BackDroid`` driver
  (Fig. 2), and :mod:`repro.core.report` its result types;
* :mod:`repro.core.batch` — the per-app job (``analyze_spec``) and the
  corpus-scale batch driver, which submits many apps to the service's
  store-aware scheduler.
"""

from repro.core.backdroid import STORE_MODES, BackDroid, BackDroidConfig
from repro.core.batch import (
    AppOutcome,
    BatchResult,
    analyze_spec,
    level_is_warm,
    outcome_payload,
    probe_spec,
    run_batch,
)
from repro.core.detectors import DETECTORS, Detector, Finding
from repro.core.forward import ForwardPropagation
from repro.core.per_app import PerAppSSG, build_per_app_ssg
from repro.core.report import AnalysisReport, SinkRecord
from repro.core.slicer import BackwardSlicer, SinkCallSite
from repro.core.ssg import SSG, CallBinding, SSGUnit
from repro.core.values import (
    ArrayObjFact,
    ConstFact,
    Fact,
    MultiFact,
    NewObjFact,
    UnknownFact,
)

__all__ = [
    "AnalysisReport",
    "AppOutcome",
    "ArrayObjFact",
    "BackDroid",
    "BackDroidConfig",
    "BackwardSlicer",
    "BatchResult",
    "CallBinding",
    "analyze_spec",
    "level_is_warm",
    "outcome_payload",
    "probe_spec",
    "run_batch",
    "STORE_MODES",
    "ConstFact",
    "DETECTORS",
    "Detector",
    "Fact",
    "Finding",
    "ForwardPropagation",
    "MultiFact",
    "NewObjFact",
    "PerAppSSG",
    "SSG",
    "SSGUnit",
    "SinkCallSite",
    "SinkRecord",
    "UnknownFact",
    "build_per_app_ssg",
]
