"""Single-copy discrimination of {|0>, |1>, |+>, |->} from walk statistics.

A trial runs r weak-measurement steps while counting outcomes in j0/j1.
At the checkpoint iteration k the running estimate alpha_approx =
j0/(j0+j1) decides whether to rotate into the Hadamard basis (apply H
once); the walk then continues in whichever basis was chosen and the
final majority count names the state.

The checkpoint fires at most once. Counters are not reset when H is
applied: under the default rule (k=2, open interval (0,1)) H fires only
when j0 = j1 = 1, so the retained counts cancel in every later
comparison and the trace keeps the full history.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .gates import SQRT2, PhaseRoot
from .walk import QubitState, WalkParams, WalkRow, walk_lists

MODES = ("interval", "never-apply-h", "always-apply-h")
# The most steps a trial takes: within it every index the batch engine
# computes (row slots, lane homes, keys up to jobs * 2^30) fits intp.
MAX_STEPS = 2**30 - 1


class StateLabel(enum.IntEnum):
    """The four promised states. Bit 0 of the code is the basis bit:
    zero/plus decide bit 0, one/minus decide bit 1. Bit 1 names the
    basis: 0 computational, 1 Hadamard."""

    ZERO = 0
    ONE = 1
    PLUS = 2
    MINUS = 3

    def __str__(self):
        return self.name.lower()

    @property
    def bit(self) -> int:
        """Which of the two basis vectors this label names (0 or 1)."""
        return self.value & 1

    @property
    def is_hadamard(self) -> bool:
        return self.value >= 2

    @property
    def basis(self) -> str:
        return "hadamard" if self.is_hadamard else "computational"

    def to_state(self) -> QubitState:
        """Canonical amplitudes: (1,0), (0,1), (1/sqrt2,1/sqrt2), (1/sqrt2,-1/sqrt2)."""
        if self is StateLabel.ZERO:
            return QubitState(1.0, 0.0)
        if self is StateLabel.ONE:
            return QubitState(0.0, 1.0)
        if self is StateLabel.PLUS:
            return QubitState(1.0 / SQRT2, 1.0 / SQRT2)
        return QubitState(1.0 / SQRT2, -1.0 / SQRT2)

    @classmethod
    def parse(cls, text: str) -> "StateLabel":
        try:
            return cls[text.strip().upper()]
        except KeyError:
            raise ValueError(
                f"unknown state {text!r}; expected one of zero, one, plus, minus"
            ) from None


@dataclass(frozen=True)
class DecisionRule:
    """Checkpoint policy: at iteration k, apply H per `mode`.

    interval mode fires iff i1 < alpha_approx < i2 (strictly): with the
    default open interval (0,1) and k=2 the only interior estimate is
    0.5, i.e. the first two outcomes disagreed.
    """

    k: int = 2
    i1: float = 0.0
    i2: float = 1.0
    mode: str = "interval"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.k < 1:
            raise ValueError(f"decision iteration k must be >= 1, got {self.k}")
        if self.mode == "interval" and not (0.0 <= self.i1 < self.i2 <= 1.0):
            raise ValueError(
                f"interval bounds need 0 <= i1 < i2 <= 1, got ({self.i1}, {self.i2})"
            )

    def fires(self, j0: int) -> bool:
        """Whether H fires at iteration k after j0 zero outcomes."""
        if self.mode == "interval":
            return self.i1 < j0 / self.k < self.i2
        return self.mode == "always-apply-h"


@dataclass(frozen=True)
class TrialOutcome:
    """Everything one trial produced.

    j0 and j1 count outcomes 0 and 1 over all r iterations. decided_state
    is StateLabel(2 * h_applied + (j1 > j0)): the basis H chose and the
    majority side, a tie (flagged) falling on zero/plus. The experiment's
    success compares only its bit with the prepared state's, so a
    prepared zero decided as plus counts as a success.

    trace holds one row per iteration, in order:
    (iteration, outcome, alpha, beta, alpha_approx), where alpha/beta
    are the amplitudes after that iteration finished (including the H
    rotation if it fired there) and alpha_approx uses the counters
    after that iteration's update.
    """

    h_applied: bool
    decided_state: StateLabel
    tie: bool
    j0: int
    j1: int
    trace: tuple[tuple[int, int, float, float, float], ...]


def apply_hadamard_update(state: QubitState) -> QubitState:
    """Rotate into the Hadamard basis: ((a+b)/sqrt2, (a-b)/sqrt2)."""
    return QubitState((state.alpha + state.beta) / SQRT2,
                      (state.alpha - state.beta) / SQRT2)


def _phase_h_start(before: QubitState, params: WalkParams, k: int) -> QubitState:
    """Amplitude moduli just after H in the phase-tracking walk.

    That walk's step factors (1 +- k^d)/2 are cos(d*pi/2t) and
    -i*sin(d*pi/2t), each times exp(i*d*pi/2t). As d1 - d0 = 1, every
    step turns beta's phase by pi/2t against alpha's, whatever the
    outcome, and leaves the moduli as in the real walk. So after k steps
    the state is, up to a global phase, (alpha, beta * exp(i*k*pi/2t))
    with the real walk's alpha and beta. From H on p0 depends only on
    the moduli, so the rest is the real walk from the moduli after H.
    """
    beta = before.beta * PhaseRoot(2 * params.t, k).value
    return QubitState(abs(before.alpha + beta) / SQRT2, abs(before.alpha - beta) / SQRT2)


def row_after_h(before: QubitState, params: WalkParams, k: int,
                phase: bool = False) -> WalkRow:
    """The row the walk restarts from when H fires at iteration k in state
    `before`: the real walk, or with phase=True the phase-tracking variant
    (see _phase_h_start)."""
    start = (_phase_h_start(before, params, k) if phase
             else apply_hadamard_update(before))
    return WalkRow.start(start, params)


def check_steps(r: int, rule: DecisionRule) -> None:
    """Refuse r unless k <= r <= MAX_STEPS, for a trial and a run alike."""
    if rule.k > r:
        raise ValueError(f"decision iteration k={rule.k} exceeds r={r}; need k <= r")
    if r > MAX_STEPS:
        raise ValueError(f"r={r} is too large: a trial takes at most {MAX_STEPS} steps")


def run_trial(initial: StateLabel, params: WalkParams, rule: DecisionRule,
              r: int, rng) -> TrialOutcome:
    """Run one full discrimination trial of r iterations.

    Consumes exactly r uniform draws from rng. The checkpoint test
    (rule.fires) runs at iteration k after that iteration's counter
    update. p0 and the traced amplitudes come from the batch engine's
    closed-form rows (walk.WalkRow), by the net count since the start or
    since H (row_after_h), each evaluated once out to r (r - k after H),
    but never past its frozen count: further out every value equals the
    one there, so the lookup clamps the count to it.
    """
    check_steps(r, rule)
    row = WalkRow.start(initial.to_state(), params)
    edge = min(r, row.frozen)
    p0, alpha, beta = walk_lists(row, edge)
    n = at = 0  # the net count, and where the lists hold it
    j0 = 0
    h_applied = False
    trace = []
    for j in range(1, r + 1):
        outcome = 0 if rng.uniform() < p0[at] else 1
        if outcome == 0:
            j0 += 1
            n += 1
        else:
            n -= 1
        at = n if -edge <= n <= edge else edge if n > 0 else -edge
        if j == rule.k and rule.fires(j0):
            row = row_after_h(QubitState(alpha[at], beta[at]), params, rule.k)
            n = at = 0
            h_applied = True
            edge = min(r - rule.k, row.frozen)
            p0, alpha, beta = walk_lists(row, edge)
        trace.append((j, outcome, alpha[at], beta[at], j0 / j))
    j1 = r - j0
    return TrialOutcome(
        h_applied=h_applied,
        decided_state=StateLabel(2 * h_applied + (j1 > j0)),
        tie=j0 == j1,
        j0=j0,
        j1=j1,
        trace=tuple(trace),
    )
