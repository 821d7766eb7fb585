#!/usr/bin/env python
"""Worst-case showcase: APCB's re-enumeration cascade vs APCBI's fix.

§IV-D (fourth advancement) describes ACB's pathology: a plan class gets
re-requested with slightly higher budgets over and over, re-enumerating
its ccps each time without ever building a plan.  This example hunts a
small workload for the query where APCB re-enumerates the most, then shows
how APCBI's rising budget + improved lower bounds collapse the cascade.

Run with::

    python examples/worst_case_showcase.py
"""

from repro import AdvancementConfig, QueryGenerator, optimize, run_dpccp


def cascade_factor(query, baseline, pruning, config=None):
    """ccps enumerated relative to DPccp's single full enumeration."""
    result = optimize(query, pruning=pruning, config=config)
    assert abs(result.cost - baseline.cost) <= 1e-6 * baseline.cost
    return (
        result.stats.ccps_enumerated / max(1, baseline.stats.ccps_enumerated),
        result.elapsed / baseline.elapsed,
        result.stats.failed_builds,
    )


def main() -> None:
    generator = QueryGenerator(seed=2012)
    print("Scanning 12 cyclic queries for APCB's worst re-enumeration...\n")

    worst = None
    for index in range(12):
        query = generator.generate(
            "cyclic", 9, "fk" if index % 2 == 0 else "random"
        )
        baseline = run_dpccp(query)
        ratio, normed, failed = cascade_factor(query, baseline, "apcb")
        if worst is None or ratio > worst[1]:
            worst = (query, ratio, baseline)

    query, ratio, baseline = worst
    print(f"Worst query: {query.describe()}")
    print(f"DPccp enumerates each ccp once: "
          f"{baseline.stats.ccps_enumerated} ccps\n")

    rows = [
        ("APCB", "apcb", None),
        ("APCB + rising budget", "apcbi", AdvancementConfig.only("rising_budget")),
        (
            "APCB + improved lB",
            "apcbi",
            AdvancementConfig.only("improved_lower_bounds"),
        ),
        ("APCBI (all six)", "apcbi", None),
    ]
    header = f"{'configuration':<24}{'ccps / DPccp':>13}{'normed t':>10}{'failed':>8}"
    print(header)
    print("-" * len(header))
    for label, pruning, config in rows:
        ratio, normed, failed = cascade_factor(query, baseline, pruning, config)
        print(f"{label:<24}{ratio:>13.2f}{normed:>9.3f}x{failed:>8}")

    print(
        "\nAPCB re-enumerates the same plan classes repeatedly (ratio well"
        "\nabove 1); the rising budget alone collapses most of the cascade,"
        "\nand full APCBI keeps enumeration near DPccp's single pass —"
        "\nthe paper's two-orders-of-magnitude worst-case improvement."
    )

    # Per-class view of the cascade, via the enumeration profiler.
    from repro.bench.profiling import InstrumentedPartitioning
    from repro.context import OptimizationContext
    from repro.core.apcb import ApcbPlanGenerator
    from repro.partitioning import MinCutConservative

    instrumented = InstrumentedPartitioning(MinCutConservative())
    ApcbPlanGenerator(OptimizationContext.for_query(query), instrumented).run()
    print("\nAPCB's worst re-enumerated plan classes:")
    print(instrumented.profile.render(limit=6))


if __name__ == "__main__":
    main()
