"""
How many dummy qubits to use
============================

More dummy qubits mean weaker individual measurements: the walk mixes
more slowly, which helps superposition states survive until the
checkpoint but wastes iterations on basis states. Sweeping mu shows
the tradeoff; the Hadamard pair peaks around mu = 2..3 and everything
decays slowly after that.
"""

from qsdwalk import ExperimentConfig, sweep_mu

SEED = 2026
MU_VALUES = list(range(1, 11))

base = ExperimentConfig(trials=10_000, master_seed=SEED)
points = sweep_mu(base, MU_VALUES)

print(f"{base.trials} trials per state per point")
print(f"{'mu':>3s} {'zero/one':>9s} {'plus/minus':>11s}")
for p in points:
    bar = "#" * round(60 * p.success_hadamard)
    print(f"{p.mu:3d} {p.success_computational:9.4f} {p.success_hadamard:11.4f}  {bar}")

best = max(points, key=lambda p: p.success_hadamard)
print(f"\nbest Hadamard-pair success at mu={best.mu} ({best.success_hadamard:.4f})")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    raise SystemExit(0)

fig, ax = plt.subplots(figsize=(7, 4.5))
ax.plot([p.mu for p in points], [p.success_computational for p in points],
        "o-", label="zero/one pair")
ax.plot([p.mu for p in points], [p.success_hadamard for p in points],
        "s-", label="plus/minus pair")
ax.set_xlabel("dummy qubits (mu)")
ax.set_ylabel("success rate")
ax.set_title("discrimination success vs measurement strength")
ax.grid(alpha=0.3)
ax.legend()
fig.tight_layout()
fig.savefig("mu_sweep.png", dpi=140)
print("saved mu_sweep.png")
