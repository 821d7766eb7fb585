"""Tests for the enumspeed benchmark and its perf-regression gate."""

import copy

import pytest

from repro.bench.enumspeed import check_against, run_benchmark


def _entry(family, relations, normed, seconds=None, gated=True):
    names = list(normed)
    seconds = seconds or {name: normed[name] * 1.0 for name in names}
    return {
        "family": family,
        "relations": relations,
        "seconds": seconds,
        "normed": normed,
        "cost_hex": "0x1.0p+0",
        "gated": gated,
    }


def _report(entries, divergences=()):
    return {
        "benchmark": "enumspeed",
        "seed": 1,
        "rounds": 1,
        "algorithms": ["dpccp", "dpconv", "topdown_apcbi"],
        "min_seconds": 0.05,
        "entries": entries,
        "cost_divergences": list(divergences),
    }


class TestRunBenchmark:
    def test_small_matrix_agrees_bit_for_bit(self):
        report = run_benchmark(
            rounds=1,
            workload=(("chain", 5), ("clique", 6)),
            haas_workload=(("star", 5), ("acyclic", 6)),
        )
        assert report["cost_divergences"] == []
        assert [e["family"] for e in report["entries"]] == ["chain", "clique"]
        for entry in report["entries"]:
            # DPccp is the normalizer: its normed time is 1.0 by
            # construction, and every algorithm got measured.
            assert entry["normed"]["dpccp"] == pytest.approx(1.0)
            assert set(entry["seconds"]) == {
                "dpccp",
                "dpconv",
                "topdown_apcbi",
                "auto",
            }
            assert entry["routed"] in ("dpconv", "dpccp")
        haas = report["haas_entries"]
        assert [(e["family"], e["relations"]) for e in haas] == [
            ("star", 5),
            ("acyclic", 6),
        ]
        for entry in haas:
            assert entry["normed"]["dpccp"] == pytest.approx(1.0)
            assert set(entry["seconds"]) == {"dpccp", "topdown_apcbi", "auto"}
            assert entry["routed"] in ("apcbi", "dpccp")

    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError):
            run_benchmark(rounds=0)


class TestCheckAgainst:
    BASE = _report(
        [
            _entry(
                "clique",
                12,
                {"dpccp": 1.0, "dpconv": 0.1, "topdown_apcbi": 0.9},
                seconds={"dpccp": 1.0, "dpconv": 0.1, "topdown_apcbi": 0.9},
            ),
            _entry(
                "chain",
                8,
                {"dpccp": 1.0, "dpconv": 0.5, "topdown_apcbi": 0.9},
                seconds={
                    "dpccp": 0.001,
                    "dpconv": 0.0005,
                    "topdown_apcbi": 0.0009,
                },
                gated=False,
            ),
        ]
    )

    def test_identical_report_passes(self):
        assert check_against(copy.deepcopy(self.BASE), self.BASE) == []

    def test_injected_regression_fails(self):
        # The fast path got 2x slower relative to DPccp: 15% tolerance
        # must not absorb that.
        slow = copy.deepcopy(self.BASE)
        slow["entries"][0]["normed"]["dpconv"] = 0.2
        slow["entries"][0]["seconds"]["dpconv"] = 0.2
        failures = check_against(slow, self.BASE)
        assert len(failures) == 1
        assert "dpconv" in failures[0] and "clique-12" in failures[0]

    def test_slowdown_within_threshold_passes(self):
        wobble = copy.deepcopy(self.BASE)
        wobble["entries"][0]["normed"]["dpconv"] = 0.11
        wobble["entries"][0]["seconds"]["dpconv"] = 0.11
        assert check_against(wobble, self.BASE) == []

    def test_cost_divergence_always_fails(self):
        diverged = copy.deepcopy(self.BASE)
        diverged["cost_divergences"] = [
            "clique-12: dpconv cost 0x1.1p+0 != dpccp cost 0x1.0p+0"
        ]
        failures = check_against(diverged, self.BASE)
        assert failures == diverged["cost_divergences"]

    def test_missing_entry_fails(self):
        trimmed = copy.deepcopy(self.BASE)
        trimmed["entries"] = trimmed["entries"][1:]
        failures = check_against(trimmed, self.BASE)
        assert len(failures) == 1
        assert "missing" in failures[0]

    def test_ungated_noise_entries_are_not_compared(self):
        # chain-8 is below the noise floor on both sides; even a 10x
        # normed-time swing there must not fail the gate.
        noisy = copy.deepcopy(self.BASE)
        noisy["entries"][1]["normed"]["dpconv"] = 5.0
        assert check_against(noisy, self.BASE) == []

    def test_sub_floor_timings_of_gated_entries_are_skipped(self):
        # Entry is gated (DPccp spends real time) but one algorithm
        # finishes in microseconds on both sides: its ratio is noise.
        base = _report(
            [
                _entry(
                    "star",
                    10,
                    {"dpccp": 1.0, "dpconv": 0.01, "topdown_apcbi": 0.9},
                    seconds={
                        "dpccp": 0.5,
                        "dpconv": 0.005,
                        "topdown_apcbi": 0.45,
                    },
                )
            ]
        )
        wobbly = copy.deepcopy(base)
        wobbly["entries"][0]["normed"]["dpconv"] = 0.02
        wobbly["entries"][0]["seconds"]["dpconv"] = 0.01
        assert check_against(wobbly, base) == []


class TestRoutingGate:
    def _routed(self, auto, scale=1.0, routed="dpccp"):
        normed = {"dpccp": 1.0, "dpconv": 1.6, "topdown_apcbi": 0.9, "auto": auto}
        seconds = {name: value * scale for name, value in normed.items()}
        entry = _entry("cycle", 20, normed, seconds=seconds, gated=False)
        entry["routed"] = routed
        return _report([entry])

    def test_auto_at_the_faster_algorithm_passes(self):
        report = self._routed(1.05)
        assert check_against(report, copy.deepcopy(report)) == []

    def test_auto_on_the_slower_algorithm_fails(self):
        # Routed to DPconv where DPccp is faster: auto tracks the 1.6.
        # The entry is not gated (DPccp itself may be fast); a misroute
        # that costs real time fails anyway.
        report = self._routed(1.6, routed="dpconv")
        failures = check_against(report, copy.deepcopy(report))
        assert len(failures) == 1
        assert "cycle-20" in failures[0] and "dpccp" in failures[0]

    def test_noise_on_the_faster_algorithm_is_not_a_misroute(self):
        # Routed to DPccp, the faster candidate; auto's own run of it
        # came out 30% slower than the bare DPccp column.  Two runs of
        # one algorithm differing is timing noise, not a wrong choice.
        report = self._routed(1.3)
        assert check_against(report, copy.deepcopy(report)) == []

    def test_a_route_outside_the_candidates_fails(self):
        report = self._routed(0.9, routed="apcbi")
        failures = check_against(report, copy.deepcopy(report))
        assert len(failures) == 1
        assert "cycle-20" in failures[0] and "'apcbi'" in failures[0]

    def test_sub_floor_entries_are_not_routing_checked(self):
        # Both candidates finish in 16 ms or less: the ratio is noise.
        report = self._routed(1.6, scale=0.01, routed="dpconv")
        assert check_against(report, copy.deepcopy(report)) == []

    def test_a_baseline_with_auto_fails_a_report_without_it(self):
        baseline = self._routed(1.0)
        baseline["entries"][0]["gated"] = True
        report = copy.deepcopy(baseline)
        del report["entries"][0]["normed"]["auto"]
        failures = check_against(report, baseline)
        assert failures == ["cycle-20: auto not measured"]


class TestHaasSection:
    """The Haas rows: candidates DPccp and top-down APCBI."""

    def _report(self, routed, apcbi=0.2, auto=0.21):
        normed = {"dpccp": 1.0, "topdown_apcbi": apcbi, "auto": auto}
        entry = _entry("acyclic", 19, normed)
        entry["routed"] = routed
        report = _report([])
        report["haas_entries"] = [entry]
        return report

    def test_the_faster_route_passes(self):
        report = self._report("apcbi")
        assert check_against(report, copy.deepcopy(report)) == []

    def test_routing_to_dpccp_where_apcbi_wins_fails(self):
        report = self._report("dpccp", auto=1.0)
        failures = check_against(report, copy.deepcopy(report))
        assert len(failures) == 1
        assert failures[0].startswith("acyclic-19 (haas): auto routed to dpccp")
        assert "topdown_apcbi" in failures[0]

    def test_a_baseline_regression_names_the_section(self):
        baseline = self._report("apcbi")
        slow = copy.deepcopy(baseline)
        slow["haas_entries"][0]["normed"]["topdown_apcbi"] = 0.4
        slow["haas_entries"][0]["normed"]["auto"] = 0.41
        failures = check_against(slow, baseline)
        assert failures == [
            "acyclic-19 (haas): topdown_apcbi normed time 0.400 exceeds "
            "baseline 0.200 by more than 15%",
            "acyclic-19 (haas): auto normed time 0.410 exceeds "
            "baseline 0.210 by more than 15%",
        ]

    def test_a_row_missing_from_the_run_fails(self):
        baseline = self._report("apcbi")
        report = copy.deepcopy(baseline)
        report["haas_entries"] = []
        assert check_against(report, baseline) == [
            "acyclic-19 (haas): present in baseline but missing from this run"
        ]
