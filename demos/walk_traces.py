"""
Watching the measurement-driven walk
====================================

Each auxiliary-qubit measurement nudges the unknown state toward |0> or
|1>, and the running outcome ratio alpha_approx tracks where it is
heading. This script prints a few full trials and saves a fan plot of
100 walks per prepared state.
"""

import numpy as np

from qsdwalk import DecisionRule, ExperimentConfig, StateLabel, collect_traces

SEED = 2026
R = 100

# plain walks, no basis rotation: this is the raw diffusion
rule = DecisionRule(mode="never-apply-h")

print("three sample walks from |+>, mu = 2")
config = ExperimentConfig(states=(StateLabel.PLUS,), trials=3, r=R,
                          mu=2, rule=rule, master_seed=SEED)
for n, outcome in enumerate(collect_traces(config, 3)):
    # print every tenth row; the trace carries all of them
    print(f"  trial {n}: decided {outcome.decided_state} "
          f"(j0={outcome.j0}, j1={outcome.j1})")
    for row in outcome.trace[9::10]:
        iteration, out, alpha, beta, approx = row
        print(f"    step {iteration:3d}  outcome {out}  "
              f"alpha={alpha:+.4f}  beta={beta:+.4f}  alpha_approx={approx:.3f}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None
    print("matplotlib not available; skipping the plot")

if plt is not None:
    fig, axes = plt.subplots(2, 2, figsize=(10, 7), sharex=True, sharey=True)
    for ax, state in zip(axes.flat,
                         (StateLabel.ZERO, StateLabel.ONE, StateLabel.PLUS, StateLabel.MINUS)):
        config = ExperimentConfig(states=(state,), trials=100, r=R, mu=2,
                                  rule=rule, master_seed=SEED)
        for outcome in collect_traces(config, 100):
            approx = [row[4] for row in outcome.trace]
            ax.plot(range(1, R + 1), approx, lw=0.5, alpha=0.35, color="tab:blue")
        ax.axhline(0.5, color="gray", lw=0.8, ls="--")
        ax.set_title(f"prepared {state}")
        ax.set_ylim(0, 1)
    for ax in axes[1]:
        ax.set_xlabel("iteration")
    for ax in axes[:, 0]:
        ax.set_ylabel("alpha_approx")
    fig.suptitle("100 walks per state, mu = 2, no rotation")
    fig.tight_layout()
    fig.savefig("walk_traces.png", dpi=140)
    print("saved walk_traces.png")
