import qsdwalk

PUBLIC_NAMES = [
    "DecisionRule",
    "ExperimentConfig",
    "PhaseRoot",
    "StateLabel",
    "WalkParams",
    "collect_traces",
    "phase_report",
    "phase_table",
    "run_experiment",
    "rx",
    "sigma_x",
    "sweep_mu",
    "v_power",
    "v_root",
    "walk_agreement",
]


def test_public_names_are_pinned_and_resolve():
    assert qsdwalk.__all__ == PUBLIC_NAMES
    namespace = {}
    exec("from qsdwalk import *", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(qsdwalk, name)
        assert getattr(qsdwalk, name).__module__.startswith("qsdwalk.")
