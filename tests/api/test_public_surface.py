"""Public-API snapshot: the exported surface changes only deliberately.

The façade makes ``repro`` / ``repro.api`` the documented entry points; an
accidental re-export (or a dropped one) is an API break for downstream
users.  This test pins the exact ``__all__`` of the public modules — when
surface changes are intentional, update the snapshot here *and* docs/API.md
in the same commit.
"""

from __future__ import annotations

import dataclasses
import importlib

import pytest

PUBLIC_SURFACE = {
    "repro": [
        "AnalysisError",
        "AnalysisReport",
        "Diagnostic",
        "DistribInfo",
        "DistribOptions",
        "EngineOptions",
        "ErrorResult",
        "ExtractionResult",
        "FetchError",
        "Pipeline",
        "PipelineBuilder",
        "QueryResult",
        "ResiliencePolicy",
        "RetryPolicy",
        "Session",
        "__version__",
        "analyze",
        "available_backends",
        "register_backend",
    ],
    "repro.api": [
        "AnalysisError",
        "AnalysisReport",
        "BackendError",
        "ChangeDetector",
        "ChangeGatedDeliverer",
        "ChangeReport",
        "Component",
        "CrashPlan",
        "DEFAULT_OPTIONS",
        "DEFAULT_RESILIENCE",
        "DelivererComponent",
        "Delivery",
        "Diagnostic",
        "DiagnosticWarning",
        "DistribInfo",
        "DistribOptions",
        "EmailDeliverer",
        "EngineOptions",
        "ErrorResult",
        "EvaluatorBackend",
        "ExtractionResult",
        "FaultPlan",
        "FaultyFetcher",
        "FetchError",
        "HtmlPortalDeliverer",
        "Pipeline",
        "PipelineBuilder",
        "PipelineError",
        "PlanRegistry",
        "QueryResult",
        "ResilienceInfo",
        "ResiliencePolicy",
        "RetryPolicy",
        "Session",
        "SmsDeliverer",
        "TransformationServer",
        "WorkJournal",
        "WorkerCrashError",
        "XmlDeliverer",
        "analyze",
        "available_backends",
        "backend_named",
        "infer_backend",
        "parse_elog",
        "register_backend",
        "resilience_report",
    ],
}


#: The tuning knobs of EngineOptions.  Adding one is an API change like an
#: export: update this snapshot and the docs/API.md reference together.
ENGINE_OPTION_FIELDS = [
    "seed_plans",
    "share_plans",
    "cache_size",
    "force_generic",
    "on_diagnostics",
]


@pytest.mark.parametrize("module_name", sorted(PUBLIC_SURFACE))
def test_public_all_matches_the_snapshot(module_name):
    module = importlib.import_module(module_name)
    assert sorted(module.__all__) == sorted(PUBLIC_SURFACE[module_name]), (
        f"{module_name}.__all__ changed; if intentional, update this "
        "snapshot and docs/API.md together"
    )


@pytest.mark.parametrize("module_name", sorted(PUBLIC_SURFACE))
def test_every_exported_name_is_importable(module_name):
    module = importlib.import_module(module_name)
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.{name} is exported but missing"


def test_default_backends_snapshot():
    from repro import available_backends

    assert list(available_backends()) == ["automata", "monadic", "semi-naive"]


def test_engine_options_fields_match_the_snapshot():
    from repro import EngineOptions

    names = [field.name for field in dataclasses.fields(EngineOptions)]
    assert names == ENGINE_OPTION_FIELDS, (
        "EngineOptions fields changed; if intentional, update this snapshot "
        "and docs/API.md together"
    )
