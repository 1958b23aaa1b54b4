"""EngineOptions: the one tuning object every evaluator accepts."""

from __future__ import annotations

import pytest

from repro import EngineOptions
from repro.datalog.options import DEFAULT_OPTIONS, UNSET, resolve_options


def test_defaults_match_the_pre_facade_constructor_defaults():
    options = EngineOptions()
    assert options.seed_plans is True
    assert options.share_plans is True
    assert options.cache_size == 8
    assert options.force_generic is False


def test_options_are_frozen_and_hashable():
    options = EngineOptions()
    with pytest.raises(Exception):
        options.share_plans = False  # type: ignore[misc]
    # Hashability is load-bearing: options key session evaluator memos and
    # the automata module evaluator cache.
    assert hash(options) == hash(EngineOptions())
    assert options == EngineOptions()
    assert options != EngineOptions(cache_size=4)


def test_derive_returns_an_updated_copy():
    base = EngineOptions()
    tuned = base.derive(cache_size=32, share_plans=False)
    assert tuned.cache_size == 32 and not tuned.share_plans
    assert base.cache_size == 8 and base.share_plans  # unchanged


def test_cache_size_is_validated_at_construction():
    with pytest.raises(ValueError):
        EngineOptions(cache_size=0)


def test_resolve_options_passthrough_and_default():
    legacy_unset = {"share_plans": UNSET, "cache_size": UNSET}
    assert resolve_options("X", None, legacy_unset) is DEFAULT_OPTIONS
    explicit = EngineOptions(cache_size=3)
    assert resolve_options("X", explicit, legacy_unset) is explicit


def test_resolve_options_warns_on_legacy_kwargs():
    with pytest.warns(DeprecationWarning, match="X\\(cache_size=\\.\\.\\.\\)"):
        resolved = resolve_options("X", None, {"cache_size": 3, "share_plans": UNSET})
    assert resolved == EngineOptions(cache_size=3)


def test_resolve_options_rejects_mixing_options_and_legacy_kwargs():
    with pytest.raises(ValueError, match="not both"):
        resolve_options("X", EngineOptions(), {"cache_size": 3})
