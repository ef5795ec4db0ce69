"""
The dense register as referee
=============================

The walk claims a closed form: after any outcomes with net count
n = j0 - j1, the outcome probability and the amplitudes are those of one
row per start state, a logistic in n (walk.WalkRow), which every walk in
the package reads. The register simulation makes no such claim: it
carries all mu + 2 qubits, applies the controlled-V chain, and projects
the auxiliary qubit. Racing the register down each outcome path while
the rows are read at its net count shows they agree to machine
precision, and also exposes the one thing the walk drops: a relative
phase of pi/2t per step.
"""

import math

from qsdwalk import phase_table, walk_agreement

CASES = 1000
MU_MAX = 4
MAX_STEPS = 20
SEED = 2026

worst_p, worst_m = walk_agreement(CASES, MU_MAX, MAX_STEPS, SEED)
print(f"{CASES} random cases, mu <= {MU_MAX}, walks up to {MAX_STEPS} steps")
print(f"  worst outcome-probability gap:    {worst_p:.3e}")
print(f"  worst amplitude-modulus gap:      {worst_m:.3e}")
print("  (anything above 1e-10 would mean the closed-form update is wrong)")

print("\nper-step relative phase the walk discards (register measurement):")
for mu, phase in phase_table(6):
    t = 2 * mu + 1
    print(f"  mu={mu}  t={t:2d}  phase={phase:+.6f} rad  (pi/{2 * t} = {math.pi / (2 * t):.6f})")
