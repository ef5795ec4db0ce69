"""Discriminating {|0>, |1>, |+>, |->} from one qubit copy.

A chain of partial negations (t-th roots of sigma_x) couples the
unknown qubit to an auxiliary qubit weakly enough that measuring the
auxiliary only nudges the state. Repeating measure-and-reset drives a
random walk on the amplitudes whose outcome statistics, plus one
optional mid-run basis rotation, name one of the four states. The
reported success counts a match of the basis bit (zero/plus against
one/minus), not of the state: no measurement identifies one of four
equiprobable BB84 states with probability above 1/2.

Layers: gates (2x2 operator algebra), walk (closed-form walk rows over
the net outcome count), oracle (dense register simulation that referees
the rows), discriminate (the per-trial decision procedure), experiment
(seeded Monte Carlo aggregation), cli (command-line surface), rng
(splitmix64 substreams).
"""

from .discriminate import DecisionRule, StateLabel
from .experiment import (
    ExperimentConfig,
    collect_traces,
    phase_report,
    run_experiment,
    sweep_mu,
)
from .gates import PhaseRoot, rx, sigma_x, v_power, v_root
from .oracle import phase_table, walk_agreement
from .walk import WalkParams

__all__ = [
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

__version__ = "0.1.0"
