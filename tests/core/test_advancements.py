"""Tests for the advancement toggle set."""

import dataclasses

import pytest

from repro.core.advancements import ADVANCEMENT_NAMES, AdvancementConfig


class TestCannedConfigs:
    def test_default_is_all_on(self):
        assert AdvancementConfig().enabled() == ADVANCEMENT_NAMES
        assert AdvancementConfig.all_on().enabled() == ADVANCEMENT_NAMES

    def test_all_off(self):
        assert AdvancementConfig.all_off().enabled() == ()

    def test_only_enables_exactly_one(self):
        config = AdvancementConfig.only("rising_budget")
        assert config.enabled() == ("rising_budget",)

    def test_only_remap_implies_heuristic(self):
        """The paper measures Goo + remapping as a unit."""
        config = AdvancementConfig.only("renumber_graph")
        assert set(config.enabled()) == {"heuristic_upper_bounds", "renumber_graph"}

    def test_all_but_disables_exactly_one(self):
        config = AdvancementConfig.all_but("improved_lbe")
        assert set(config.enabled()) == set(ADVANCEMENT_NAMES) - {"improved_lbe"}

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError):
            AdvancementConfig.only("telepathy")
        with pytest.raises(ValueError):
            AdvancementConfig.all_but("telepathy")


class TestNeedsHeuristic:
    def test_upper_bounds_need_goo(self):
        assert AdvancementConfig.only("heuristic_upper_bounds").needs_heuristic

    def test_remap_needs_goo(self):
        assert AdvancementConfig.only("renumber_graph").needs_heuristic

    def test_others_do_not(self):
        assert not AdvancementConfig.only("rising_budget").needs_heuristic
        assert not AdvancementConfig.all_off().needs_heuristic


class TestNamesMatchPaperOrder:
    def test_six_advancements(self):
        assert len(ADVANCEMENT_NAMES) == 6

    def test_order(self):
        assert ADVANCEMENT_NAMES[0] == "improved_lbe"
        assert ADVANCEMENT_NAMES[3] == "rising_budget"
        assert ADVANCEMENT_NAMES[5] == "renumber_graph"

    def test_frozen(self):
        config = AdvancementConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.rising_budget = False
