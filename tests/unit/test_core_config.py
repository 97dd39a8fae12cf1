"""Unit tests for repro.core.config."""

from __future__ import annotations

import pytest

from repro.core.config import SemanticConfig
from repro.errors import ConfigError


class TestPresets:
    def test_default_is_full_semantic(self):
        config = SemanticConfig()
        assert config.mode == "semantic"
        assert config.enable_synonyms and config.enable_hierarchy and config.enable_mappings

    def test_syntactic_disables_everything(self):
        config = SemanticConfig.syntactic()
        assert config.is_syntactic
        assert config.mode == "syntactic"

    def test_single_stage_presets(self):
        def stages(config):
            return (config.enable_synonyms, config.enable_hierarchy, config.enable_mappings)

        assert stages(SemanticConfig.synonyms_only()) == (True, False, False)
        assert stages(SemanticConfig.hierarchy_only()) == (False, True, False)
        assert stages(SemanticConfig.mappings_only()) == (False, False, True)

    def test_semantic_accepts_overrides(self):
        config = SemanticConfig.semantic(max_generality=2)
        assert config.max_generality == 2


class TestValidation:
    def test_negative_generality_rejected(self):
        with pytest.raises(ConfigError):
            SemanticConfig(max_generality=-1)

    def test_zero_generality_allowed(self):
        assert SemanticConfig(max_generality=0).max_generality == 0

    def test_iterations_must_be_positive(self):
        with pytest.raises(ConfigError):
            SemanticConfig(max_iterations=0)

    def test_derived_cap_must_be_positive(self):
        with pytest.raises(ConfigError):
            SemanticConfig(max_derived_events=0)

    def test_present_year_sanity(self):
        with pytest.raises(ConfigError):
            SemanticConfig(present_year=1492)


class TestHelpers:

    def test_mapping_context_carries_year(self):
        assert SemanticConfig(present_year=1999).mapping_context().present_year == 1999

    def test_frozen(self):
        config = SemanticConfig()
        with pytest.raises(AttributeError):
            config.max_generality = 5  # type: ignore[misc]
