"""No deprecation warnings: evaluators are tuned through ``options=`` only.

The pre-façade tuning kwargs and the imperative ``InformationPipe`` wiring
are removed, not deprecated; constructing an evaluator must stay silent
(the suite also turns every ``DeprecationWarning`` into an error).
"""

from __future__ import annotations

import warnings

from repro import EngineOptions
from repro.datalog import SemiNaiveEngine, parse_program

PROGRAM = parse_program(
    """
    reach(X, Y) :- edge(X, Y).
    reach(X, Y) :- reach(X, Z), edge(Z, Y).
    """
)


def test_engine_default_construction_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        SemiNaiveEngine(PROGRAM)
        SemiNaiveEngine(PROGRAM, options=EngineOptions(share_plans=False))
