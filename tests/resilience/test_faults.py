"""Fault injector semantics: determinism, transparency, every fault point."""

import math

import pytest

from repro.core.optimizer import Optimizer
from repro.cost.haas import HaasCostModel
from repro.graph import bitset
from repro.errors import CatalogError, InjectedFaultError
from repro.partitioning.registry import get_partitioning
from repro.resilience import COST_FAULT_MODES, FaultInjector


class TestArming:
    def test_context_manager_arms_and_disarms(self):
        injector = FaultInjector(seed=1)
        assert not injector.active
        with injector as armed:
            assert armed is injector
            assert injector.active
        assert not injector.active

    def test_arm_resets_counters(self):
        injector = FaultInjector(seed=1)
        with injector:
            injector._fire("cost_model")
        assert injector.total_injected == 1
        with injector:
            assert injector.total_injected == 0

    @pytest.mark.parametrize("kwargs", [{"rate": -0.1}, {"rate": 1.5}, {"after": -1}])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultInjector(**kwargs)

    def test_unknown_cost_mode_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector().cost_model(HaasCostModel(), mode="explode")


class TestCostModelFaults:
    def _stats(self, small_query):
        from repro.cost.statistics import StatisticsProvider

        provider = StatisticsProvider(small_query)
        return provider.stats(0b01), provider.stats(0b10)

    def test_raise_mode(self, small_query):
        injector = FaultInjector(seed=0)
        model = injector.cost_model(HaasCostModel(), mode="raise")
        left, right = self._stats(small_query)
        with injector:
            with pytest.raises(InjectedFaultError):
                model.join_cost(left, right)

    @pytest.mark.parametrize("mode,check", [
        ("nan", math.isnan),
        ("inf", math.isinf),
    ])
    def test_poison_modes(self, small_query, mode, check):
        injector = FaultInjector(seed=0)
        model = injector.cost_model(HaasCostModel(), mode=mode)
        left, right = self._stats(small_query)
        with injector:
            assert check(model.join_cost(left, right))

    def test_disarmed_is_pass_through(self, small_query):
        left, right = self._stats(small_query)
        plain = HaasCostModel().join_cost(left, right)
        wrapped = FaultInjector(seed=0).cost_model(HaasCostModel(), mode="raise")
        assert wrapped.join_cost(left, right) == plain

    def test_disarmed_optimization_is_bit_identical(self, small_query):
        injector = FaultInjector(seed=0)
        clean = Optimizer(cost_model_factory=HaasCostModel).optimize(small_query)
        wrapped = Optimizer(
            cost_model_factory=injector.cost_model_factory(HaasCostModel, "nan")
        ).optimize(small_query)
        assert wrapped.cost == clean.cost
        assert wrapped.plan.sexpr() == clean.plan.sexpr()
        assert injector.total_injected == 0

    def test_partial_rate_is_deterministic(self, small_query):
        left, right = self._stats(small_query)

        def run():
            injector = FaultInjector(seed=99, rate=0.5)
            model = injector.cost_model(HaasCostModel(), mode="nan")
            with injector:
                outcomes = [
                    math.isnan(model.join_cost(left, right)) for _ in range(64)
                ]
            return outcomes, injector.total_injected

        first, n_first = run()
        second, n_second = run()
        assert first == second
        assert n_first == n_second
        assert 0 < n_first < 64  # rate 0.5 actually mixes

    def test_after_delays_the_first_fault(self, small_query):
        left, right = self._stats(small_query)
        injector = FaultInjector(seed=0, after=3)
        model = injector.cost_model(HaasCostModel(), mode="nan")
        with injector:
            outcomes = [math.isnan(model.join_cost(left, right)) for _ in range(5)]
        assert outcomes == [False, False, False, True, True]

    def test_all_modes_are_exposed(self):
        assert set(COST_FAULT_MODES) == {"raise", "nan", "inf", "latency"}

    @pytest.mark.parametrize("mode,check", [
        ("nan", math.isnan),
        ("inf", math.isinf),
    ])
    def test_join_costs_fire_per_order(self, small_query, mode, check):
        """The base-class join_costs calls the wrapped join_cost twice."""
        left, right = self._stats(small_query)
        injector = FaultInjector(seed=0, after=1)
        model = injector.cost_model(HaasCostModel(), mode=mode)
        with injector:
            first, second = model.join_costs(left, right)
        assert first == HaasCostModel().join_cost(left, right)
        assert check(second)
        assert injector.injected == {"cost_model": 1}

    def test_ccp_pricing_stays_fault_eligible(self, small_query):
        """Every order DPccp prices passes the injector, the last one too."""
        from repro.baselines.dpccp import DPccp
        from repro.context.context import OptimizationContext

        def run(injector):
            model = injector.cost_model(HaasCostModel(), mode="raise")
            algorithm = DPccp(
                context=OptimizationContext.for_query(small_query, cost_model=model)
            )
            with injector:
                algorithm.run()
            return algorithm

        counting = FaultInjector(seed=0, after=10**9)
        pricings = run(counting).stats.operator_pricings
        assert pricings > 0
        assert counting._eligible_calls == 2 * pricings
        last = FaultInjector(seed=0, after=2 * pricings - 1)
        with pytest.raises(InjectedFaultError):
            run(last)
        assert last.injected == {"cost_model": 1}


class TestPartitioningFaults:
    def test_bogus_cut_is_overlapping(self, small_query):
        injector = FaultInjector(seed=0)
        strategy = injector.partitioning(get_partitioning("mincut_conservative"))
        full = small_query.graph.all_vertices
        with injector:
            cuts = list(strategy.partitions(small_query.graph, full))
        assert len(cuts) == 1
        left, right = cuts[0]
        assert left == right  # overlapping and non-covering: not a ccp
        assert injector.injected["partitioning"] == 1

    def test_disarmed_partitions_match_inner(self, small_query):
        inner = get_partitioning("mincut_conservative")
        wrapped = FaultInjector(seed=0).partitioning(inner)
        full = small_query.graph.all_vertices
        assert list(wrapped.partitions(small_query.graph, full)) == list(
            inner.partitions(small_query.graph, full)
        )


class TestCatalogFaults:
    def test_dropped_relation_raises_while_armed(self, small_query):
        injector = FaultInjector(seed=0)
        faulty = injector.query(small_query, drop=2)
        with injector:
            with pytest.raises(CatalogError, match=r"\[injected\].*R2"):
                faulty.catalog.cardinality(2)
        assert injector.injected["catalog"] == 1

    def test_other_relations_unaffected(self, small_query):
        injector = FaultInjector(seed=0)
        faulty = injector.query(small_query, drop=2)
        with injector:
            assert faulty.catalog.cardinality(0) == small_query.catalog.cardinality(0)

    def test_disarmed_catalog_is_transparent(self, small_query):
        injector = FaultInjector(seed=0)
        faulty = injector.query(small_query, drop=2)
        assert faulty.catalog.cardinality(2) == small_query.catalog.cardinality(2)

    def test_victim_choice_is_seeded(self, small_query):
        a = FaultInjector(seed=5).query(small_query)
        b = FaultInjector(seed=5).query(small_query)
        assert a.catalog.dropped_relation == b.catalog.dropped_relation


class TestLatencyMode:
    """The ``latency`` fault mode: slow, never wrong (ISSUE satellite)."""

    def _stats(self, small_query):
        from repro.cost.statistics import StatisticsProvider

        provider = StatisticsProvider(small_query)
        return provider.stats(0b01), provider.stats(0b10)

    def test_latency_in_cost_fault_modes(self):
        assert "latency" in COST_FAULT_MODES

    def test_injected_delay_uses_the_injectable_sleep(self, small_query):
        naps = []
        injector = FaultInjector(
            seed=0, latency_seconds=0.25, sleep=naps.append
        )
        model = injector.cost_model(HaasCostModel(), mode="latency")
        left, right = self._stats(small_query)
        with injector:
            delayed = model.join_cost(left, right)
        assert naps == [0.25]
        assert injector.injected.get("cost_model") == 1
        # Slow but correct: the returned cost is the true cost.
        plain = HaasCostModel().join_cost(left, right)
        assert float(delayed).hex() == float(plain).hex()

    def test_disarmed_latency_mode_never_sleeps(self, small_query):
        naps = []
        injector = FaultInjector(seed=0, sleep=naps.append)
        model = injector.cost_model(HaasCostModel(), mode="latency")
        left, right = self._stats(small_query)
        model.join_cost(left, right)
        assert naps == []

    def test_latency_rate_is_seeded_and_deterministic(self, small_query):
        left, right = self._stats(small_query)

        def schedule():
            naps = []
            injector = FaultInjector(
                seed=7, rate=0.3, latency_seconds=0.01, sleep=naps.append
            )
            model = injector.cost_model(HaasCostModel(), mode="latency")
            with injector:
                for _ in range(64):
                    model.join_cost(left, right)
            return len(naps), injector.injected.get("cost_model", 0)

        first = schedule()
        second = schedule()
        assert first == second
        assert 0 < first[0] < 64

    def test_latency_preserves_plan_choice_bit_for_bit(self, small_query):
        from repro.core.optimizer import Optimizer

        clean = Optimizer().optimize(small_query)
        naps = []
        injector = FaultInjector(
            seed=3, rate=0.5, latency_seconds=0.001, sleep=naps.append
        )
        with injector:
            slowed = Optimizer(
                cost_model_factory=injector.cost_model_factory(
                    HaasCostModel, "latency"
                )
            ).optimize(small_query)
        assert naps  # faults really fired...
        assert slowed.plan.sexpr() == clean.plan.sexpr()  # ...plan unmoved
        assert slowed.cost.hex() == clean.cost.hex()

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(latency_seconds=-0.1)


class TestIoFaults:
    """The ``io`` fault family: seeded write corruption for file handles."""

    def _wrapped(self, tmp_path, kind, seed=7, rate=1.0):
        from repro.resilience import StoreFaultInjector

        injector = StoreFaultInjector(seed=seed, rate=rate, kind=kind)
        handle = open(tmp_path / f"{kind}.bin", "wb")
        return injector, injector.wrap_handle(handle)

    def test_disarmed_wrapper_is_bit_identical(self, tmp_path):
        injector, handle = self._wrapped(tmp_path, "bitflip")
        payload = bytes(range(256)) * 4
        with handle:
            handle.write(payload)
        assert (tmp_path / "bitflip.bin").read_bytes() == payload
        assert injector.total_injected == 0

    def test_raise_mode_lands_no_bytes(self, tmp_path):
        injector, handle = self._wrapped(tmp_path, "raise")
        with injector, handle:
            with pytest.raises(InjectedFaultError):
                handle.write(b"abcdef")
        assert (tmp_path / "raise.bin").read_bytes() == b""

    def test_torn_mode_flushes_a_strict_prefix(self, tmp_path):
        injector, handle = self._wrapped(tmp_path, "torn")
        payload = b"0123456789" * 10
        with injector, handle:
            with pytest.raises(InjectedFaultError):
                handle.write(payload)
        landed = (tmp_path / "torn.bin").read_bytes()
        assert len(landed) < len(payload)
        assert payload.startswith(landed)

    def test_bitflip_mode_flips_exactly_one_bit(self, tmp_path):
        injector, handle = self._wrapped(tmp_path, "bitflip")
        payload = bytes(range(256))
        with injector, handle:
            handle.write(payload)  # reports success
        landed = (tmp_path / "bitflip.bin").read_bytes()
        assert len(landed) == len(payload)
        flipped = [
            bitset.bit_count(a ^ b) for a, b in zip(landed, payload) if a != b
        ]
        assert flipped == [1]

    def test_io_faults_are_seeded_and_deterministic(self, tmp_path):
        corruptions = []
        for attempt in range(2):
            from repro.resilience import StoreFaultInjector

            injector = StoreFaultInjector(seed=13, kind="bitflip")
            path = tmp_path / f"det-{attempt}.bin"
            with injector, injector.wrap_handle(open(path, "wb")) as handle:
                handle.write(bytes(64))
            corruptions.append(path.read_bytes())
        assert corruptions[0] == corruptions[1]

    def test_store_injector_rejects_unknown_kind(self):
        from repro.resilience import StoreFaultInjector

        with pytest.raises(ValueError):
            StoreFaultInjector(kind="gamma-ray")

    def test_stale_epoch_kind_leaves_handles_untouched(self, tmp_path):
        from repro.resilience import StoreFaultInjector

        injector = StoreFaultInjector(seed=1, kind="stale_epoch")
        raw = open(tmp_path / "plain.bin", "wb")
        assert injector.wrap_handle(raw) is raw
        assert not injector.epoch_fires()  # disarmed: never fires
        with injector:
            assert injector.epoch_fires()
        raw.close()

    def test_mode_catalogues_are_exported(self):
        from repro.resilience import IO_FAULT_MODES, STORE_FAULT_KINDS

        assert IO_FAULT_MODES == ("raise", "torn", "bitflip")
        assert set(STORE_FAULT_KINDS) == set(IO_FAULT_MODES) | {"stale_epoch"}
