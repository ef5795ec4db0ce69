"""
Does the dropped phase matter?
==============================

The per-trial walk treats amplitudes as real, but the register referee
shows each step also advances a relative phase. That phase is invisible
to the outcome statistics until the mid-run H rotation mixes the two
components. This script runs paired experiments (identical random
streams) with the real-amplitude update and with full complex
amplitudes, and reports how far the success rates drift apart.
"""

from qsdwalk import ExperimentConfig, phase_report

SEED = 2026
TRIALS = 50_000

config = ExperimentConfig(trials=TRIALS, master_seed=SEED)
points = phase_report(config)

print(f"{TRIALS} paired trials per state, mu={config.mu}")
print(f"{'state':8s} {'real':>8s} {'complex':>9s} {'|diff|':>8s}")
for p in points:
    print(f"{str(p.state):8s} {p.total_success_real:8.4f} "
          f"{p.total_success_complex:9.4f} {p.abs_diff:8.4f}")

print()
print("zero/one reach the rotation with a single nonzero component, so no")
print("relative phase can exist and the difference is zero. plus/minus do")
print("carry phase into the rotation; the gap above is what ignoring it")
print("costs, and it is the honest error bar on the real-amplitude model.")
