"""Engine tuning options: one frozen dataclass for every evaluator.

Before the :mod:`repro.api` façade, each evaluation layer grew its own
ad-hoc tuning kwargs — ``SemiNaiveEngine(cache_size=, share_plans=)``,
``MonadicTreeEvaluator(force_generic=, cache_size=, share_plans=)``,
``compiled_evaluator(force_generic=, share_plans=)`` — so a caller
configuring a whole stack had to thread several values through every
constructor, and a new knob meant touching every signature on the way
down.

:class:`EngineOptions` replaces the scattered kwargs: it is the single
declarative description of *how* to evaluate, accepted uniformly by
:class:`~repro.datalog.engine.SemiNaiveEngine`,
:class:`~repro.mdatalog.evaluator.MonadicTreeEvaluator`, the compiled
automata evaluators of :mod:`repro.automata.to_datalog`, and the server
components — and owned by :class:`repro.api.Session`, which applies one
options object to every engine it builds.  The legacy kwargs still work on
every constructor but emit :class:`DeprecationWarning` through
:func:`resolve_options` (the shim the constructors share).

The dataclass is frozen and hashable so it can key evaluator memos (the
:mod:`repro.api` session memoises one engine per (program, options) pair,
and the automata layer keys its module-level evaluator cache by options).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Mapping


class _Unset:
    """Sentinel distinguishing "kwarg not passed" from an explicit value."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "UNSET"


#: Default value of every legacy tuning kwarg: "not passed".
UNSET = _Unset()


@dataclass(frozen=True)
class EngineOptions:
    """Declarative tuning of one evaluator stack.

    The semi-naive engine has one evaluation path (compiled rule plans over
    columnar storage); these knobs tune it, never select another one.

    Attributes
    ----------
    seed_plans:
        Consult the statically-seeded join plans that the registry compiles
        from :mod:`repro.analysis.cost` estimates at program-compile time
        (and pre-build the advised indexes before the first fixpoint).
        ``False`` restores pure runtime planning — the first query per
        (rule, delta position) re-runs the greedy planner on live sizes.
        Join order never affects the fixpoint, only latency; the property
        suite asserts both settings produce identical results.
        Options-object only: there is no legacy constructor kwarg for this
        knob.
    share_plans:
        Obtain compiled programs (strata, rule plans, trigger maps — and, in
        the monadic layer, TMNF rewrites) from a shared
        :class:`~repro.datalog.registry.PlanRegistry` so N engines over one
        program pay one compilation.  Which registry is used is orthogonal:
        engines default to the process-wide singleton, while engines built
        by a :class:`repro.api.Session` use the session-owned registry.
    cache_size:
        Capacity of every per-engine fixpoint LRU (one entry per distinct
        hot database / document).
    force_generic:
        Monadic layer only: skip the Theorem-2.4 ground+LTUR pipeline and
        evaluate through the generic semi-naive engine even for programs in
        the TMNF fragment.
    on_diagnostics:
        What :class:`repro.api.Session` entry points do about error-severity
        static-analysis findings (:mod:`repro.analysis`): ``"warn"``
        (default) emits a :class:`~repro.analysis.diagnostics.
        DiagnosticWarning` per error, ``"strict"`` raises
        :class:`~repro.analysis.diagnostics.AnalysisError`, ``"ignore"``
        skips analysis entirely.  Reports are cached per program content
        fingerprint, so the policy costs one analysis per distinct program.
    """

    seed_plans: bool = True
    share_plans: bool = True
    cache_size: int = 8
    force_generic: bool = False
    on_diagnostics: str = "warn"

    def __post_init__(self) -> None:
        if self.cache_size < 1:
            raise ValueError(
                f"EngineOptions.cache_size must be >= 1, got {self.cache_size}"
            )
        if self.on_diagnostics not in ("ignore", "warn", "strict"):
            raise ValueError(
                "EngineOptions.on_diagnostics must be 'ignore', 'warn' or "
                f"'strict', got {self.on_diagnostics!r}"
            )

    # ------------------------------------------------------------------
    def derive(self, **changes: Any) -> "EngineOptions":
        """A copy with ``changes`` applied (the frozen-dataclass idiom)."""
        return replace(self, **changes)


#: The default options every constructor resolves to when nothing is passed.
DEFAULT_OPTIONS = EngineOptions()

_FIELD_NAMES = frozenset(field.name for field in fields(EngineOptions))


def resolve_options(
    owner: str,
    options: "EngineOptions | None",
    legacy: Mapping[str, Any],
) -> EngineOptions:
    """The deprecation shim shared by every evaluator constructor.

    ``legacy`` maps each pre-façade tuning kwarg to the value the caller
    passed, or :data:`UNSET` when it was not passed.  Passing any legacy
    kwarg still works — it is folded into an :class:`EngineOptions` — but
    emits a :class:`DeprecationWarning` naming the replacement; mixing
    legacy kwargs with an explicit ``options`` object is an error (the two
    could silently disagree).
    """
    passed: Dict[str, Any] = {
        name: value for name, value in legacy.items() if value is not UNSET
    }
    unknown = set(passed) - _FIELD_NAMES
    if unknown:  # pragma: no cover - programming error in the caller
        raise TypeError(f"{owner}: unknown tuning kwargs {sorted(unknown)}")
    if not passed:
        return options if options is not None else DEFAULT_OPTIONS
    if options is not None:
        raise ValueError(
            f"{owner}: pass either options=EngineOptions(...) or the legacy "
            f"kwargs {sorted(passed)}, not both"
        )
    warnings.warn(
        f"{owner}({', '.join(sorted(passed))}=...) is deprecated; pass "
        f"options=EngineOptions({', '.join(sorted(passed))}=...) instead "
        "(see docs/API.md)",
        DeprecationWarning,
        stacklevel=3,
    )
    return EngineOptions(**passed)
