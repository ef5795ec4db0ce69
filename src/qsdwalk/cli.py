"""Command-line front end: trial, experiment, sweep, oracle-check.

Machine-readable payloads (trace CSV, report JSON, sweep CSV) go to
stdout or to --out; diagnostics, the classification summary, and the
auto-drawn seed announcement go to stderr so payloads stay parseable.
Every command is deterministic under a fixed seed: --seed wins, then
the QSD_SEED environment variable, then a fresh 64-bit value from
system entropy (printed as "seed: N" so the run can be replayed). A
seed outside 0..2^64-1 is a usage error.

Exit codes: 0 success, 1 check failure (oracle-check discrepancy),
2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys

from .discriminate import MODES, DecisionRule, StateLabel, check_trace_steps, run_trial
from .experiment import ExperimentConfig, run_experiment, sweep_mu
from .oracle import check_agreement_sizes, phase_table, walk_agreement
from .rng import check_seed, substream
from .walk import WalkParams

_AGREEMENT_TOL = 1e-10


def _resolve_seed(args) -> int:
    """The master seed. Commands call this once their sizes are checked,
    so a usage error is not preceded by the announcement of a drawn seed."""
    if args.seed is not None:
        return check_seed(args.seed, "--seed")
    env = os.environ.get("QSD_SEED")
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ValueError(f"QSD_SEED must be an integer, got {env!r}") from None
        return check_seed(seed, "QSD_SEED")
    # what secrets.randbits(64) returns, without importing secrets, which
    # loads hmac and libcrypto into every CLI process
    seed = int.from_bytes(os.urandom(8), "big")
    print(f"seed: {seed}", file=sys.stderr)
    return seed


def _emit(payload: str, out_path) -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ValueError(f"cannot write --out {out_path}: {exc.strerror or exc}") from None
    else:
        sys.stdout.write(payload)


def _g(x: float) -> str:
    """Full-precision float for csv/json payloads."""
    return format(x, ".17g")


def _add_mu_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mu", type=int, default=2, help="dummy-qubit count (default 2)")


def _add_rule_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--r", type=int, default=100, help="iterations per trial (default 100)")
    p.add_argument("--k", type=int, default=2, help="decision iteration (default 2)")
    p.add_argument("--i1", type=float, default=0.0, help="lower interval bound (default 0)")
    p.add_argument("--i2", type=float, default=1.0, help="upper interval bound (default 1)")
    p.add_argument("--mode", default="interval", choices=MODES,
                   help="when to apply the basis rotation (default interval)")


def _rule(args) -> DecisionRule:
    return DecisionRule(k=args.k, i1=args.i1, i2=args.i2, mode=args.mode)


def _thread_count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_threads_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--threads", type=_thread_count, default=1,
                   help="ignored: every run is one serial pass; still checked to be "
                        ">= 1, so scripts that pass it keep working")


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="master seed (else QSD_SEED, else entropy)")
    p.add_argument("--out", default=None, help="write the payload to this file instead of stdout")


def cmd_trial(args) -> int:
    state = StateLabel.parse(args.state)
    params = WalkParams(args.mu)
    rule = _rule(args)
    check_trace_steps(args.r, rule)
    seed = _resolve_seed(args)
    # substream 0 so this trial equals trial 0 of an experiment run with the same seed
    outcome = run_trial(state, params, rule, args.r, substream(seed, 0))
    _emit(_trace_csv(outcome, rule.k), args.out)
    print(f"classified: {outcome.decided_state} (basis={outcome.decided_state.basis}, "
          f"j0={outcome.j0}, j1={outcome.j1}, "
          f"tie={'true' if outcome.tie else 'false'})", file=sys.stderr)
    return 0


def _trace_csv(outcome, k: int) -> str:
    """The trace of one trial as CSV, every float at full precision."""
    # a trial's amplitudes are the same few float objects, step after
    # step: format each once a call, keyed by identity, which also keeps
    # -0.0 apart from 0.0
    text = {}
    lines = ["trial_id,iteration,outcome,alpha,beta,alpha_approx,j0,j1,h_applied"]
    j0 = 0
    for iteration, out, alpha, beta, approx in outcome.trace:
        j0 += out == 0
        a = text.get(id(alpha))
        if a is None:
            a = text[id(alpha)] = "%.17g" % alpha
        b = text.get(id(beta))
        if b is None:
            b = text[id(beta)] = "%.17g" % beta
        h_flag = "true" if outcome.h_applied and iteration >= k else "false"
        lines.append("0,%d,%d,%s,%s,%.17g,%d,%d,%s" % (
            iteration, out, a, b, approx, j0, iteration - j0, h_flag))
    return "\n".join(lines) + "\n"


def _parse_states(text: str) -> tuple[StateLabel, ...]:
    return tuple(StateLabel.parse(part) for part in text.split(","))


def cmd_experiment(args) -> int:
    config = ExperimentConfig(
        states=_parse_states(args.states),
        trials=args.trials,
        r=args.r,
        mu=args.mu,
        rule=_rule(args),
    )
    seed = _resolve_seed(args)
    config = dataclasses.replace(config, master_seed=seed)
    reports = run_experiment(config)
    if args.format == "json":
        records = [{
            "state": str(rep.state),
            "trials": rep.trials,
            "frac_h_applied": rep.frac_h_applied,
            "success_given_h": rep.success_given_h,
            "failure_given_h": rep.failure_given_h,
            "success_given_no_h": rep.success_given_no_h,
            "failure_given_no_h": rep.failure_given_no_h,
            "total_success": rep.total_success,
            "tie_count": rep.tie_count,
            "seed": seed,
        } for rep in reports]
        payload = json.dumps(records, indent=2) + "\n"
    else:
        blocks = [f"seed: {seed}"]
        for rep in reports:
            blocks.append(
                f"state: {rep.state}\n"
                f"  trials: {rep.trials}\n"
                f"  frac_h_applied: {rep.frac_h_applied:.6f}\n"
                f"  frac_no_h: {rep.frac_no_h:.6f}\n"
                f"  success_given_h: {rep.success_given_h:.6f}\n"
                f"  failure_given_h: {rep.failure_given_h:.6f}\n"
                f"  success_given_no_h: {rep.success_given_no_h:.6f}\n"
                f"  failure_given_no_h: {rep.failure_given_no_h:.6f}\n"
                f"  total_success: {rep.total_success:.6f}\n"
                f"  tie_count: {rep.tie_count}")
        payload = "\n".join(blocks) + "\n"
    _emit(payload, args.out)
    return 0


def _parse_mu_list(text: str) -> list[int]:
    """Accepts '2', '1..10', or '1,3,5'."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(part) for part in text.split(",")]
    except ValueError:
        raise ValueError(f"--mu takes N, LO..HI or A,B,C; got {text!r}") from None
    if not values:
        raise ValueError(f"--mu takes N, LO..HI or A,B,C; got the empty range {text!r}")
    return values


def cmd_sweep(args) -> int:
    mu_values = [WalkParams(mu).mu for mu in _parse_mu_list(args.mu)]
    base = ExperimentConfig(
        trials=args.trials,
        r=args.r,
        mu=mu_values[0],
        rule=_rule(args),
    )
    base = dataclasses.replace(base, master_seed=_resolve_seed(args))
    points = sweep_mu(base, mu_values)
    lines = ["mu,success_computational,success_hadamard"]
    lines += [f"{p.mu},{_g(p.success_computational)},{_g(p.success_hadamard)}"
              for p in points]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_oracle_check(args) -> int:
    check_agreement_sizes(args.cases, args.mu_max, args.max_steps)
    seed = _resolve_seed(args)
    worst_p, worst_m = walk_agreement(args.cases, args.mu_max, args.max_steps, seed)
    ok = worst_p < _AGREEMENT_TOL and worst_m < _AGREEMENT_TOL
    lines = [
        f"cases: {args.cases} (mu <= {args.mu_max}, walk length <= {args.max_steps})",
        f"max probability discrepancy: {worst_p:.3e}",
        f"max amplitude-moduli discrepancy: {worst_m:.3e}",
        "per-step relative phase (register minus analytic walk, which keeps none):",
    ]
    lines += [f"  mu={mu:<3d} phase={phase:+.6f} rad" for mu, phase in phase_table(args.mu_max)]
    lines.append(f"status: {'ok' if ok else 'DISCREPANCY'} (tolerance {_AGREEMENT_TOL:g})")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if ok else 1


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="qsdwalk",
        description="Single-copy discrimination of zero/one/plus/minus via "
                    "weak-measurement random walks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trial", help="run one trial and emit its trace as CSV")
    p.add_argument("--state", required=True, help="prepared state: zero|one|plus|minus")
    _add_mu_flag(p)
    _add_rule_flags(p)
    _add_common_flags(p)
    p.set_defaults(handler=cmd_trial)

    p = sub.add_parser("experiment", help="Monte Carlo success/failure report per state")
    p.add_argument("--states", default="zero,one,plus,minus",
                   help="comma-separated subset of zero,one,plus,minus (default all)")
    p.add_argument("--trials", type=int, default=100_000, help="trials per state (default 100000)")
    _add_mu_flag(p)
    _add_rule_flags(p)
    _add_threads_flag(p)
    p.add_argument("--format", default="json", choices=["json", "human"],
                   help="report format (default json)")
    _add_common_flags(p)
    p.set_defaults(handler=cmd_experiment)

    p = sub.add_parser("sweep", help="success per basis pair across mu values, as CSV")
    p.add_argument("--mu", required=True, help="mu values: '2', '1..10', or '1,3,5'")
    p.add_argument("--trials", type=int, default=10_000,
                   help="trials per state per mu (default 10000)")
    _add_rule_flags(p)
    _add_threads_flag(p)
    _add_common_flags(p)
    p.set_defaults(handler=cmd_sweep)

    p = sub.add_parser("oracle-check",
                       help="race the analytic walk against the register simulation")
    p.add_argument("--mu-max", type=int, default=4, help="largest mu to draw (default 4, cap 20)")
    p.add_argument("--cases", type=int, default=1000, help="random cases, at most 2^20 (default 1000)")
    p.add_argument("--max-steps", type=int, default=20, help="longest walk per case, at most 2^20 (default 20)")
    _add_common_flags(p)
    p.set_defaults(handler=cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
