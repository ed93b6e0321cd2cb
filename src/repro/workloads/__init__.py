"""Workloads and synthetic data (S11).

The TVTouch running example (Table 1 exactly), the Section 5 test
database generator, rule-series generation, history sampling from
ground-truth rules, and synthetic user populations.
"""

from repro._lazy import lazy_exports as _lazy_exports

#: Where each public name lives; a name's module loads on first use
#: (the traffic generator and the Section 5 database are not what a
#: worker serving the TVTouch world needs).
__getattr__, __dir__, __all__ = _lazy_exports(
    __name__,
    {
        "repro.workloads.generator": (
            "Section5World",
            "Section5Counts",
            "generate_test_database",
        ),
        "repro.workloads.history_gen": (
            "ContextPattern",
            "PlantedRule",
            "sample_history",
            "sample_workday_mornings",
        ),
        "repro.workloads.rules_series": ("generate_rule_series", "install_context_series"),
        "repro.workloads.traffic": (
            "CONTEXT_MENUS",
            "RetryPolicy",
            "TrafficConfig",
            "TrafficOutcome",
            "TrafficReport",
            "TrafficRequest",
            "build_schedule",
            "http_client",
            "run_traffic",
            "zipf_weights",
        ),
        "repro.workloads.tvtouch": (
            "EXPECTED_TABLE1_SCORES",
            "PROGRAMS",
            "TvTouchWorld",
            "build_tvtouch",
            "set_breakfast_weekend_context",
        ),
        "repro.workloads.users": (
            "SyntheticUser",
            "generate_population",
            "sessions_for_population",
            "simulate_choice",
        ),
    },
)
