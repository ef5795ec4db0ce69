"""
Single-copy discrimination scoreboard
=====================================

Runs the full procedure (walk, checkpoint at k=2, optional rotation,
majority vote) for each of the four states and prints the success and
rotation-rate breakdown. With the default open interval the rotation
fires whenever the first two outcomes disagree, which happens on
roughly 45% of trials for every input state.
"""

from qsdwalk import ExperimentConfig, run_experiment

TRIALS = 100_000
SEED = 2026

config = ExperimentConfig(trials=TRIALS, master_seed=SEED)
reports = run_experiment(config)

print(f"{TRIALS} trials per state, mu={config.mu}, r={config.r}, "
      f"k={config.rule.k}, interval ({config.rule.i1:g}, {config.rule.i2:g})")
print()
header = f"{'state':8s} {'rotated':>9s} {'succ|rot':>9s} {'succ|walk':>10s} {'total':>8s} {'ties':>6s}"
print(header)
print("-" * len(header))
for rep in reports:
    print(f"{str(rep.state):8s} {rep.frac_h_applied:9.4f} {rep.success_given_h:9.4f} "
          f"{rep.success_given_no_h:10.4f} {rep.total_success:8.4f} {rep.tie_count:6d}")

print()
print("reading the zero row: without rotation the state is pinned at (1,0)")
print("and the majority vote almost always lands on zero; with rotation the")
print("walk restarts from |+> and the Hadamard-basis vote is a fair coin.")
print("the total is therefore approx 0.55 * ~1.0 + 0.45 * 0.5 = 0.774.")
