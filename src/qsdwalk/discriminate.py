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

The outcome operators diag(c0, c1) and diag(s0, s1) = diag(c1, c0)
commute, so a record's probability depends only on its counts: from
(alpha, beta), the count of outcome 0 over m steps is the mixture
alpha^2 Bin(m, c0^2) + beta^2 Bin(m, c1^2). A trial is decided from
that law in four draws, and its steps are laid out after:

- u0 picks the component z from alpha^2 of the start;
- u1 inverts the CDF of Bin(k, c_z^2): the count j0 at step k, which
  decides whether H fires (DecisionRule.fires);
- if H fires and steps follow, u2 picks the component again, from
  alpha^2 of the row the walk restarts in (restart_rows); otherwise the
  record is still one mixture and the component drawn by u0 is kept;
- u3 decides the vote: the count over the r - k steps left is drawn
  from Bin(r - k, c_z'^2), so the vote names bit 1 iff u3 lies below
  that CDF at ceil(r/2) - 1 - j0, and a tie (even r) iff it lies below
  the CDF at r/2 - j0 but not the first.

trial_tables holds what each draw is compared with; decide is the rule
over arrays of draws, and run_trial the same rule one trial at a time.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .gates import SQRT2, PhaseRoot
from .rng import check_integer
from .walk import QubitState, WalkParams, WalkRow, walk_lists

MODES = ("interval", "never-apply-h", "always-apply-h")
# The most steps a trial takes, in run_trial and in a run alike.
MAX_STEPS = 2**30 - 1
# The most steps a traced trial takes: its trace holds a row a step (~400 MiB at 2^20).
MAX_TRACE_STEPS = 2**20
MAX_K = 2**20  # the largest decision iteration k: a run's tables take ~115 B a count


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
        object.__setattr__(self, "k", check_integer(self.k, "decision iteration k"))
        if self.k < 1:
            raise ValueError(f"decision iteration k must be >= 1, got {self.k}")
        if self.k > MAX_K:
            raise ValueError(f"decision iteration k must be <= {MAX_K}, got {self.k}")
        for name in ("i1", "i2"):
            bound = getattr(self, name)
            if isinstance(bound, bool) or not isinstance(bound, (int, float, np.integer,
                                                                 np.floating)):
                raise ValueError(f"{name} must be a real number, got {bound!r}")
        if self.mode == "interval" and not (0.0 <= self.i1 < self.i2 <= 1.0):
            raise ValueError(
                f"interval bounds need 0 <= i1 < i2 <= 1, got ({self.i1}, {self.i2})"
            )

    def fires(self, j0: np.ndarray) -> np.ndarray:
        """Whether H fires at iteration k after j0 zero outcomes, for each
        entry of an array of counts."""
        if self.mode == "interval":
            estimate = j0 / self.k
            return (self.i1 < estimate) & (estimate < self.i2)
        return np.full(np.shape(j0), self.mode == "always-apply-h")


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


def check_steps(r: int, rule: DecisionRule) -> int:
    """r as a Python int if it is an integer in k..MAX_STEPS, for a trial
    and a run alike; else a ValueError."""
    r = check_integer(r, "r")
    if rule.k > r:
        raise ValueError(f"decision iteration k={rule.k} exceeds r={r}; need k <= r")
    if r > MAX_STEPS:
        raise ValueError(f"r={r} is too large: a trial takes at most {MAX_STEPS} steps")
    return r


def check_trace_steps(r: int, rule: DecisionRule) -> int:
    """check_steps, and r at most MAX_TRACE_STEPS, for a traced trial."""
    r = check_steps(r, rule)
    if r > MAX_TRACE_STEPS:
        raise ValueError(f"r={r} is too large for trial: its trace holds at most "
                         f"{MAX_TRACE_STEPS} steps")
    return r


# 2t^2/n where Hoeffding's bound P(X - nq >= t) <= exp(-2t^2/n) reaches
# 2^-60, so a window of t past the mean on each side drops less mass than
# the 2^-53 grid of a uniform draw resolves
_HOEFFDING = 30 * math.log(2)


@dataclass(frozen=True)
class Binomial:
    """The CDF of Bin(n, q) on the window lo .. lo + len(cdf) - 1 that
    holds all its mass but less than 2^-59: cdf[i] = P(X <= lo + i), and
    cdf[-1] = 1. The window spans about 9 sqrt(n) counts."""

    lo: int
    cdf: np.ndarray

    @classmethod
    def of(cls, n: int, q: float) -> "Binomial":
        """The pmf by its ratio recurrence outward from the mode, then
        normalised; q = 0 and q = 1 (mu = 0) are point masses."""
        if q <= 0.0 or q >= 1.0:
            return cls(n if q >= 1.0 else 0, np.ones(1))
        mode = min(n, math.floor((n + 1) * q))
        reach = math.ceil(math.sqrt(_HOEFFDING * n)) + 2  # the mode is within 1 of nq
        lo, hi = max(0, mode - reach), min(n, mode + reach)
        odds = q / (1.0 - q)
        up = np.arange(mode + 1, hi + 1)  # pmf(m) / pmf(m - 1) = (n - m + 1) / m * odds
        down = np.arange(mode, lo, -1)
        rise = np.cumprod((n - up + 1) / up * odds)
        fall = np.cumprod(down / (n - down + 1) / odds)
        pmf = np.concatenate([fall[::-1], [1.0], rise])
        cdf = np.minimum(np.cumsum(pmf / pmf.sum()), 1.0)
        cdf[-1] = 1.0
        return cls(lo, cdf)

    def count(self, u):
        """The count whose CDF step holds the uniform u (or each entry of
        an array of them): the least m with u < F(m). One float is
        searched by bisect, a tenth of searchsorted's call cost, with
        the same comparisons."""
        if isinstance(u, float):
            return self.lo + bisect_right(self.cdf, u)
        return self.lo + np.searchsorted(self.cdf, u, side="right")

    def at(self, m: np.ndarray) -> np.ndarray:
        """F(m) at integer counts m: 0 below the window, 1 above it. A
        count from count(u) is <= m exactly when u < at(m)."""
        i = m - self.lo
        return np.where(i < 0, 0.0, self.cdf[np.clip(i, 0, len(self.cdf) - 1)])


def interior(values: np.ndarray) -> np.ndarray:
    """The distinct entries of `values` strictly between 0 and 1,
    ascending: the thresholds a draw can fall either side of. Sorted and
    deduplicated here, not by np.unique, whose import of numpy.ma costs a
    megabyte of memory."""
    inner = values[(0.0 < values) & (values < 1.0)]
    inner.sort()
    keep = np.ones(len(inner), dtype=bool)
    np.not_equal(inner[1:], inner[:-1], out=keep[1:])
    return inner[keep]


@dataclass(frozen=True)
class CountLaw:
    """The count laws one (mu, k, r) gives every start, per component z.

    Component 0 takes outcome 0 with probability c0^2 at every step and
    component 1 with c1^2. step_k[z] is the count j0 at step k, after_k[z]
    the count over the r - k steps left. below[z, j0] and through[z, j0]
    are the thresholds of the vote: a u3 below `below` draws so few zeros
    after step k that the vote names bit 1 (j1 > j0 over all r steps),
    and one in [below, through) a tie (even r only). step_thresholds and
    vote_thresholds are the interiors of both step-k CDFs (met by u1) and
    of below and through (met by u3), listed once here for every walk at
    this mu."""

    step_k: tuple[Binomial, Binomial]
    after_k: tuple[Binomial, Binomial]
    below: np.ndarray
    through: np.ndarray
    step_thresholds: np.ndarray
    vote_thresholds: np.ndarray


@lru_cache(maxsize=32)
def count_law(params: WalkParams, k: int, r: int) -> CountLaw:
    """The count laws of (mu, k, r), built once for every walk at that mu."""
    # c1 = 0 exactly at mu = 0, as in WalkRow
    q = [c * c for c in params.factors[:2]] if params.mu else [1.0, 0.0]
    after_k = tuple(Binomial.of(r - k, p) for p in q)
    j0 = np.arange(k + 1)
    below = np.stack([law.at((r + 1) // 2 - 1 - j0) for law in after_k])
    through = np.stack([law.at(r // 2 - j0) for law in after_k])
    step_k = tuple(Binomial.of(k, p) for p in q)
    return CountLaw(
        step_k=step_k,
        after_k=after_k,
        below=below,
        through=through,
        step_thresholds=interior(np.concatenate([law.cdf for law in step_k])),
        vote_thresholds=interior(np.concatenate((below, through))),
    )


def restart_rows(start: WalkRow, j0: np.ndarray, k: int, phase: bool = False) -> WalkRow:
    """The stack of rows a walk from `start` restarts in when H fires at
    step k after each count j0 of outcome 0: H of the state (alpha, beta)
    at the net count 2 j0 - k, ((alpha + beta)/sqrt2, (alpha - beta)/sqrt2),
    signs included, so counts symmetric about k/2 restart in rows of one
    x0 but of their own signs.

    phase=True restarts the phase-tracking variant instead, from the
    moduli |alpha +- beta exp(i k pi/2t)|/sqrt2. That walk's step factors
    (1 +- k^d)/2 are cos(d pi/2t) and -i sin(d pi/2t), each times
    exp(i d pi/2t). As d1 - d0 = 1, every step turns beta's phase by pi/2t
    against alpha's, whatever the outcome, and leaves the moduli as in the
    real walk. So after k steps the state is, up to a global phase,
    (alpha, beta exp(i k pi/2t)) with the real walk's alpha and beta. From
    H on p0 depends only on the moduli, so the rest is the real walk from
    the moduli after H.
    """
    alpha, beta = start.amplitudes(2 * j0 - k)
    if phase:
        turn = PhaseRoot(2 * start.params.t, k).value
        # the hypot of the parts rounds as abs() of a Python complex does,
        # where np.abs of a complex array may differ in the last bit
        re, im = beta * turn.real, beta * turn.imag
        return WalkRow.of(np.hypot(alpha + re, im) / SQRT2, np.hypot(alpha - re, im) / SQRT2,
                          start.params)
    return WalkRow.of((alpha + beta) / SQRT2, (alpha - beta) / SQRT2, start.params)


@dataclass(frozen=True)
class TrialTables:
    """Everything a trial of one walk reads: the count laws of its mu,
    its start row and zero_start, alpha^2 there (the chance of component
    0), whether H fires at each j0, and zero_after[z, j0], the chance of
    component 0 after step k. Where H fires and a step follows, that is
    alpha^2 of restart[j0]; elsewhere the record stays one mixture, so
    the component drawn at the start is kept (1 for z = 0, 0 for z = 1).
    restart, the stack of rows restart_rows gives at each j0, is built on
    its first read: at k = r no step follows H, so only a trace reads it.
    after_thresholds, the interior of zero_after, is listed once a walk
    for draw_thresholds."""

    law: CountLaw
    start: WalkRow
    zero_start: float
    fires: np.ndarray
    phase: bool
    zero_after: np.ndarray

    @cached_property
    def restart(self) -> WalkRow:
        k = len(self.fires) - 1
        return restart_rows(self.start, np.arange(k + 1), k, self.phase)

    @cached_property
    def after_thresholds(self) -> np.ndarray:
        return interior(self.zero_after)


@lru_cache(maxsize=64)
def _start_thresholds(zero_starts: tuple[float, ...]) -> np.ndarray:
    """interior() of the starts' alpha^2, one array for equal starts."""
    return interior(np.array(zero_starts))


@lru_cache(maxsize=64)
def trial_tables(state: StateLabel, params: WalkParams, rule: DecisionRule, r: int,
                 phase: bool = False) -> TrialTables:
    """The tables of one walk, built once over all counts 0..k: run_trial
    and the batch engine read the same floats. phase=True restarts after
    H as the phase-tracking variant (restart_rows)."""
    k = rule.k
    start = WalkRow.start(state.to_state(), params)
    fires = rule.fires(np.arange(k + 1))
    tables = TrialTables(count_law(params, k, r), start, float(start.alpha2), fires, phase,
                         np.array([[1.0], [0.0]]).repeat(k + 1, axis=1))
    if r > k:
        tables.zero_after[:, fires] = tables.restart.alpha2[fires]
    return tables


def draw_thresholds(tables: list[TrialTables]) -> tuple[np.ndarray, ...]:
    """The thresholds each draw u0..u3 of one mu group's jobs (of one count
    law) is compared with: the starts' alpha^2 (cached per tuple of starts),
    the law's step_thresholds, the walks' after_thresholds, merged, and the
    law's vote_thresholds."""
    law = tables[0].law
    return (_start_thresholds(tuple(t.zero_start for t in tables)), law.step_thresholds,
            interior(np.concatenate([t.after_thresholds for t in tables])),
            law.vote_thresholds)


def decide(tables: list[TrialTables], draws: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """run_trial's rule, stated once: from the four draws u0..u3 (rows; one
    column a trial, or a tally's cell at its least draws), per job the sums
    of `weights` (one per column: a cell's trials, or its mass) over the
    trials that vote bit 1, that apply H, both, and that vote bit 1 or tie.
    The jobs are a stack of J >= 1 of one (mu, k, r) and one rule, as a
    pass's jobs at one mu are: j0 at step k is searched once a call, the
    law's below, through and fires are read once for the stack, and each
    job's zero_after is read in place, so a call holds no k-sized table
    a job."""
    u0, u1, u2, u3 = draws
    law, fires = tables[0].law, tables[0].fires
    width = len(fires)  # k + 1
    j0_of = [step.count(u1) for step in law.step_k]
    z = u0 >= np.array([[t.zero_start] for t in tables])
    j0 = np.where(z, j0_of[1], j0_of[0])
    after = np.stack([np.take(t.zero_after, j + width * zj) for t, j, zj in zip(tables, j0, z)])
    key = j0 + width * (u2 >= after)
    one, h = u3 < np.take(law.below, key), np.take(fires, j0)
    votes = (one, h, one & h, u3 < np.take(law.through, key))
    return np.stack(votes, axis=1) @ weights


def _trace_lists(row: WalkRow, reach: int) -> tuple[list[float], list[float]]:
    """alpha and beta of `row` at |n| <= reach, indexed as walk_lists
    does. Rows are evaluated (and cached) only out to their frozen count;
    past it every value equals the one there, so the lists repeat it."""
    edge = min(reach, row.frozen)
    alpha, beta = walk_lists(row, edge)
    if edge < reach:
        pad = reach - edge
        alpha, beta = (values[:edge + 1] + [values[edge]] * pad + [values[-edge]] * pad
                       + values[edge + 1:] for values in (alpha, beta))
    return alpha, beta


def run_trial(initial: StateLabel, params: WalkParams, rule: DecisionRule,
              r: int, rng, phase: bool = False) -> TrialOutcome:
    """Run one full discrimination trial of r iterations.

    Consumes 4 + r uniform draws from rng. The first four decide the
    trial from its counts (see the module docstring), as decide does
    from the same four and the same trial_tables. The other r draws lay
    the outcomes out step by step: in a stretch (steps up to k, or after
    it) with a zeros left among L steps, outcome 0 comes with
    probability a/L, so every order of the stretch is equally likely, as
    the walk makes it. The traced amplitudes come from the closed-form
    rows (walk.WalkRow) by the net count since the start, read out to r
    through _trace_lists, and, once H fires, since H in
    tables.restart[j0] for this trial's own j0, signs included: the row
    whose alpha^2 the decision read from zero_after where steps follow.
    phase=True walks the phase-tracking variant after H (restart_rows).
    """
    r = check_trace_steps(r, rule)
    k = rule.k
    tables = trial_tables(initial, params, rule, r, phase)
    law = tables.law
    uniform = rng.uniform
    z = int(uniform() >= tables.zero_start)
    j0_at_k = law.step_k[z].count(uniform())
    z = int(uniform() >= tables.zero_after[z, j0_at_k])
    zeros_after = law.after_k[z].count(uniform())
    h_applied = bool(tables.fires[j0_at_k])

    alpha, beta = _trace_lists(tables.start, r)
    n = j0 = 0  # the net count in the row walked, and the outcome-0 count
    zeros, left = j0_at_k, k  # outcome-0 counts still to place, and the steps left
    trace = []
    append = trace.append
    for j in range(1, r + 1):
        if uniform() < zeros / left:
            outcome = 0
            zeros -= 1
            j0 += 1
            n += 1
        else:
            outcome = 1
            n -= 1
        left -= 1
        if j == k:
            zeros, left = zeros_after, r - k
            if h_applied:
                n = 0
                alpha, beta = _trace_lists(tables.restart[j0], r - k)
        append((j, outcome, alpha[n], beta[n], j0 / j))
    j1 = r - j0
    return TrialOutcome(
        h_applied=h_applied,
        decided_state=StateLabel(2 * h_applied + (j1 > j0)),
        tie=j0 == j1,
        j0=j0,
        j1=j1,
        trace=tuple(trace),
    )
