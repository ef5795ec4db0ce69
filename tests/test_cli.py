import json
import subprocess
import sys
import time

import pytest

import qsdwalk.cli as cli
import qsdwalk.experiment as experiment
import qsdwalk.oracle as oracle
from qsdwalk.cli import _trace_csv, main
from qsdwalk.discriminate import StateLabel, TrialOutcome
from qsdwalk.walk import WalkRow

JSON_KEYS = {"state", "trials", "frac_h_applied", "success_given_h",
             "failure_given_h", "success_given_no_h", "failure_given_no_h",
             "total_success", "tie_count", "seed"}


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("QSD_SEED", raising=False)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_trial_csv_schema(capsys):
    code, out, err = run_cli(capsys, "trial", "--state", "plus", "--r", "10", "--seed", "7")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "trial_id,iteration,outcome,alpha,beta,alpha_approx,j0,j1,h_applied"
    assert len(lines) == 11
    for i, line in enumerate(lines[1:], start=1):
        cols = line.split(",")
        assert len(cols) == 9
        assert cols[0] == "0"
        assert int(cols[1]) == i
        assert cols[2] in ("0", "1")
        assert int(cols[6]) + int(cols[7]) == i
        assert cols[8] in ("true", "false")
    assert err.startswith("classified: ")


def test_trial_deterministic(capsys):
    args = ("trial", "--state", "plus", "--mu", "2", "--r", "100", "--seed", "7")
    _, out1, err1 = run_cli(capsys, *args)
    _, out2, err2 = run_cli(capsys, *args)
    assert out1 == out2
    assert err1 == err2


def test_trial_never_mode_zero_classifies_zero(capsys):
    code, _, err = run_cli(capsys, "trial", "--state", "zero", "--mode", "never-apply-h",
                           "--mu", "1", "--seed", "3")
    assert code == 0
    assert "classified: zero" in err


def test_trial_h_flag_marks_rotated_rows(capsys):
    # find a seed where H fires, then check the flag flips at k
    for seed in range(20):
        _, out, err = run_cli(capsys, "trial", "--state", "plus", "--r", "6",
                              "--seed", str(seed))
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        if "basis=hadamard" in err:
            assert rows[0][8] == "false"
            assert all(r[8] == "true" for r in rows[1:])
            break
    else:
        pytest.fail("no rotated trial in 20 seeds")


def test_trial_rejects_k_above_r(capsys):
    code, _, err = run_cli(capsys, "trial", "--state", "plus", "--k", "200", "--r", "100",
                           "--seed", "1")
    assert code == 2
    assert "k=200" in err and "r=100" in err


def test_trial_rejects_unknown_state(capsys):
    code, _, err = run_cli(capsys, "trial", "--state", "sideways", "--seed", "1")
    assert code == 2
    assert "sideways" in err


def test_experiment_json_schema(capsys):
    code, out, _ = run_cli(capsys, "experiment", "--states", "zero,plus",
                           "--trials", "200", "--seed", "11")
    assert code == 0
    records = json.loads(out)
    assert [rec["state"] for rec in records] == ["zero", "plus"]
    for rec in records:
        assert set(rec) == JSON_KEYS
        assert rec["trials"] == 200
        assert rec["seed"] == 11
        assert isinstance(rec["tie_count"], int)
        assert abs(rec["success_given_h"] + rec["failure_given_h"]
                   + rec["success_given_no_h"] + rec["failure_given_no_h"] - 1.0) < 1e-12


def test_experiment_single_trial_fractions(capsys):
    code, out, _ = run_cli(capsys, "experiment", "--states", "minus", "--trials", "1",
                           "--seed", "2")
    assert code == 0
    rec = json.loads(out)[0]
    for key in ("frac_h_applied", "success_given_h", "failure_given_h",
                "success_given_no_h", "failure_given_no_h", "total_success"):
        assert rec[key] in (0.0, 1.0)


def test_seeds_differing_in_low_bits_give_different_reports(capsys):
    # a report is a sum over trials, so seeds that share their trials'
    # streams, in any order, print the same report but for the seed
    reports = set()
    for seed in (1, 2, 1000, 1023):
        code, out, _ = run_cli(capsys, "experiment", "--trials", "1024", "--threads", "1",
                               "--seed", str(seed))
        assert code == 0
        reports.add(json.dumps([{key: value for key, value in rec.items() if key != "seed"}
                                for rec in json.loads(out)]))
    assert len(reports) == 4


def test_experiment_human_format(capsys):
    code, out, _ = run_cli(capsys, "experiment", "--states", "one", "--trials", "300",
                           "--seed", "5", "--format", "human")
    assert code == 0
    assert out.startswith("seed: 5\n")
    assert "state: one" in out
    assert "total_success: 0." in out


def test_experiment_threads_agree(capsys):
    # --threads is still accepted, and ignored: every run is one serial pass
    base = ("experiment", "--states", "plus", "--trials", "2000", "--seed", "21")
    _, out1, _ = run_cli(capsys, *base, "--threads", "1")
    _, out3, _ = run_cli(capsys, *base, "--threads", "3")
    _, out_default, _ = run_cli(capsys, *base)  # --threads 1
    assert out1 == out3 == out_default


@pytest.mark.parametrize("argv", [
    ["experiment", "--threads", "0"],
    ["experiment", "--threads", "-3"],
    ["sweep", "--mu", "2", "--threads", "0"],
])
def test_threads_below_one_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--trials", "10", "--seed", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--threads" in captured.err and "must be >= 1" in captured.err


def test_largest_r_runs_in_seconds(capsys):
    # the four draws of a trial decide it at any r; before, this stepped
    # 2^30 - 1 steps per trial
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "experiment", "--r", "1073741823", "--trials", "1000",
                             "--seed", "1")
    assert time.perf_counter() - start < 5.0
    assert (code, err) == (0, "")
    assert [rec["trials"] for rec in json.loads(out)] == [1000] * 4


def test_trace_csv_bytes_unchanged_at_a_fixed_outcome():
    # floats are formatted once per distinct value and call, which must
    # print what formatting each field alone prints, signed zeros too
    trace = ((1, 1, 0.0, -0.0, 0.0), (2, 0, -0.0, 0.0, 0.5), (3, 0, 0.6, -0.8, 2 / 3),
             (4, 1, 0.6, -0.8, 0.5), (5, 0, 1 / 3, 0.6, 0.6))
    outcome = TrialOutcome(h_applied=True, decided_state=StateLabel.PLUS, tie=False,
                           j0=3, j1=2, trace=trace)
    lines = ["trial_id,iteration,outcome,alpha,beta,alpha_approx,j0,j1,h_applied"]
    j0 = 0
    for iteration, out, alpha, beta, approx in trace:
        j0 += out == 0
        lines.append("0,%d,%d,%.17g,%.17g,%.17g,%d,%d,%s" % (
            iteration, out, alpha, beta, approx, j0, iteration - j0,
            "true" if iteration >= 2 else "false"))
    assert _trace_csv(outcome, 2) == "\n".join(lines) + "\n"
    assert "0,1,1,0,-0,0,0,1,false" in lines


def test_sweep_takes_shared_rule_flags(capsys):
    args = ("--trials", "200", "--r", "31", "--k", "3", "--i1", "0.1", "--i2", "0.9",
            "--mode", "always-apply-h", "--seed", "4", "--threads", "1")
    _, out, _ = run_cli(capsys, "sweep", "--mu", "2", *args)
    _, exp, _ = run_cli(capsys, "experiment", "--mu", "2", *args)
    ts = {rec["state"]: rec["total_success"] for rec in json.loads(exp)}
    row = out.strip().split("\n")[1].split(",")
    assert float(row[1]) == (ts["zero"] + ts["one"]) / 2
    assert float(row[2]) == (ts["plus"] + ts["minus"]) / 2


def test_sweep_rows_and_determinism(capsys):
    args = ("sweep", "--mu", "1..4", "--trials", "100", "--seed", "9")
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "mu,success_computational,success_hadamard"
    assert len(lines) == 5
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3", "4"]
    _, again, _ = run_cli(capsys, *args)
    assert out == again


def test_sweep_single_and_list(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--mu", "2", "--trials", "50", "--seed", "1")
    assert code == 0
    assert len(out.strip().split("\n")) == 2
    code, out, _ = run_cli(capsys, "sweep", "--mu", "1,3", "--trials", "50", "--seed", "1")
    assert code == 0
    assert [line.split(",")[0] for line in out.strip().split("\n")[1:]] == ["1", "3"]


@pytest.mark.parametrize("text,problem", [
    ("1..", ""), ("..3", ""), ("1,,2", ""), (",", ""), ("", ""), ("x", ""),
    ("1..x", ""), ("1.5", ""), ("1..2..3", ""), ("5..1", "the empty range "),
])
def test_sweep_rejects_malformed_mu(capsys, text, problem):
    code, out, err = run_cli(capsys, "sweep", "--mu", text, "--trials", "10", "--seed", "1")
    assert code == 2
    assert out == ""
    assert err == f"error: --mu takes N, LO..HI or A,B,C; got {problem}{text!r}\n"


def test_oracle_check_passes(capsys):
    code, out, _ = run_cli(capsys, "oracle-check", "--mu-max", "3", "--cases", "60",
                           "--seed", "13")
    assert code == 0
    assert "status: ok" in out
    assert "mu=2" in out and "+0.314159" in out  # pi/10 per step


def test_oracle_check_rejects_mu_over_cap(capsys):
    code, _, err = run_cli(capsys, "oracle-check", "--mu-max", "21", "--seed", "1")
    assert code == 2
    assert "20" in err


def test_oracle_check_rejects_negative_mu_max(capsys):
    code, out, err = run_cli(capsys, "oracle-check", "--mu-max", "-1", "--seed", "1")
    assert code == 2
    assert out == ""
    assert err == "error: mu_max must be in 0..20, got -1\n"


@pytest.mark.parametrize("cases", ["0", str(2**20 + 1), "2000000000"])
def test_oracle_check_cases_past_the_bound_are_a_usage_error(cases, capsys, monkeypatch):
    # 2e9 cases died in numpy's allocator with exit 1, the code of a
    # discrepancy; the bound is checked before any stream is drawn
    def no_streams(*args):
        raise AssertionError("streams drawn")

    monkeypatch.setattr(oracle, "substream_states", no_streams)
    code, out, err = run_cli(capsys, "oracle-check", "--cases", cases, "--seed", "1")
    assert code == 2
    assert out == ""
    assert err == f"error: cases must be in 1..1048576, got {cases}\n"


@pytest.mark.parametrize("argv,problem", [
    (["experiment", "--trials", "0"], "trials must be >= 1, got 0"),
    (["sweep", "--mu", "1..2", "--r", "1"], "decision iteration k=2 exceeds r=1; need k <= r"),
    (["sweep", "--mu", "1,-1"], "mu must be non-negative, got -1"),
    (["oracle-check", "--cases", "0"], "cases must be in 1..1048576, got 0"),
    (["trial", "--state", "plus", "--r", "1"], "decision iteration k=2 exceeds r=1; need k <= r"),
])
def test_bad_sizes_are_refused_before_a_seed_is_drawn(argv, problem, capsys):
    # with no --seed and no QSD_SEED a command announces the seed it
    # draws; a usage error comes first, and alone
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {problem}\n"


ORACLE_CHECK_2024 = """\
cases: 200 (mu <= 8, walk length <= 20)
max probability discrepancy: 1.221e-15
max amplitude-moduli discrepancy: 8.327e-16
per-step relative phase (register minus analytic walk, which keeps none):
  mu=1   phase=+0.523599 rad
  mu=2   phase=+0.314159 rad
  mu=3   phase=+0.224399 rad
  mu=4   phase=+0.174533 rad
  mu=5   phase=+0.142800 rad
  mu=6   phase=+0.120830 rad
  mu=7   phase=+0.104720 rad
  mu=8   phase=+0.092400 rad
status: ok (tolerance 1e-10)
"""


def test_oracle_check_output_pinned(capsys):
    code, out, err = run_cli(capsys, "oracle-check", "--cases", "200", "--mu-max", "8",
                             "--max-steps", "20", "--seed", "2024")
    assert code == 0
    assert out == ORACLE_CHECK_2024
    assert err == ""


def test_oracle_check_flags_a_perturbed_row(capsys, monkeypatch):
    # the check reads the rows every walk path shares: p0 off by 1e-9
    # relative must fail it
    p0 = WalkRow.p0
    monkeypatch.setattr(WalkRow, "p0", lambda row, n: p0(row, n) * (1 + 1e-9))
    code, out, err = run_cli(capsys, "oracle-check", "--cases", "200", "--mu-max", "8",
                             "--max-steps", "20", "--seed", "2024")
    assert code == 1
    assert out.endswith("status: DISCREPANCY (tolerance 1e-10)\n")
    assert err == ""


def test_qsd_seed_env(capsys, monkeypatch):
    monkeypatch.setenv("QSD_SEED", "77")
    _, out_env, _ = run_cli(capsys, "experiment", "--states", "zero", "--trials", "100")
    monkeypatch.delenv("QSD_SEED")
    _, out_flag, _ = run_cli(capsys, "experiment", "--states", "zero", "--trials", "100",
                             "--seed", "77")
    assert out_env == out_flag


def test_seed_flag_beats_env(capsys, monkeypatch):
    monkeypatch.setenv("QSD_SEED", "77")
    _, out, _ = run_cli(capsys, "experiment", "--states", "zero", "--trials", "100",
                        "--seed", "5")
    rec = json.loads(out)[0]
    assert rec["seed"] == 5


def test_bad_qsd_seed(capsys, monkeypatch):
    monkeypatch.setenv("QSD_SEED", "not-a-number")
    code, _, err = run_cli(capsys, "trial", "--state", "zero", "--r", "2")
    assert code == 2
    assert "QSD_SEED" in err


@pytest.mark.parametrize("command", [
    ("experiment", "--states", "zero", "--trials", "10"),
    ("sweep", "--mu", "1", "--trials", "10"),
    ("trial", "--state", "zero", "--r", "2"),
    ("oracle-check", "--cases", "1"),
])
@pytest.mark.parametrize("seed", ["18446744073709551616", "-1", "-18446744073709551615"])
def test_out_of_range_seed_flag_is_refused(capsys, command, seed):
    # 2^64 would replay seed 0 and -1 would replay 2^64 - 1
    code, out, err = run_cli(capsys, *command, "--seed", seed)
    assert code == 2
    assert out == ""
    assert err == f"error: --seed must be in 0..2^64-1, got {seed}\n"


@pytest.mark.parametrize("seed", ["18446744073709551616", "-5"])
def test_out_of_range_qsd_seed_is_refused(capsys, monkeypatch, seed):
    monkeypatch.setenv("QSD_SEED", seed)
    code, out, err = run_cli(capsys, "experiment", "--states", "zero", "--trials", "10")
    assert code == 2
    assert out == ""
    assert err == f"error: QSD_SEED must be in 0..2^64-1, got {seed}\n"


def test_largest_seed_is_accepted(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "experiment", "--states", "zero", "--trials", "10",
                           "--seed", str(2**64 - 1))
    assert code == 0
    assert json.loads(out)[0]["seed"] == 2**64 - 1
    monkeypatch.setenv("QSD_SEED", str(2**64 - 1))
    assert run_cli(capsys, "experiment", "--states", "zero", "--trials", "10")[1] == out


def test_r_past_the_index_range_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "experiment", "--r", "5000000000", "--trials", "1",
                             "--seed", "1")
    assert code == 2
    assert out == ""
    assert err == "error: r=5000000000 is too large: a trial takes at most 1073741823 steps\n"


def test_trial_r_past_the_index_range_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "trial", "--state", "plus", "--r", "5000000000",
                             "--seed", "1")
    assert code == 2
    assert out == ""
    assert err == "error: r=5000000000 is too large: a trial takes at most 1073741823 steps\n"


def test_trial_r_past_the_trace_bound_is_a_usage_error(capsys, monkeypatch):
    # a trace keeps and prints every step, so trial takes at most 2^20 of
    # them, and refuses more before it draws; experiment still takes them
    class FirstDraw(Exception):
        pass

    def draw(*args):
        raise FirstDraw

    monkeypatch.setattr(cli, "substream", draw)
    code, out, err = run_cli(capsys, "trial", "--state", "plus", "--r", str(2**20 + 1),
                             "--seed", "1")
    assert (code, out) == (2, "")
    assert err == ("error: r=1048577 is too large for trial: its trace holds at most "
                   "1048576 steps\n")
    with pytest.raises(FirstDraw):
        main(["trial", "--state", "plus", "--r", str(2**20), "--seed", "1"])
    code, out, err = run_cli(capsys, "experiment", "--r", str(2**20 + 1), "--trials", "10",
                             "--seed", "1")
    assert (code, err) == (0, "")


def test_experiment_r_past_the_trial_bound_exits_before_any_draw(capsys, monkeypatch):
    # a trial refuses this r, and so does the run: a draw fails the test at
    # once instead of stepping for hours
    def draw(*args):
        raise AssertionError("drew past the bound")

    monkeypatch.setattr(experiment, "substream_states", draw)
    monkeypatch.setattr(experiment, "batch_uniform", draw)
    code, out, err = run_cli(capsys, "experiment", "--r", "2000000000", "--trials", "1",
                             "--seed", "1")
    assert code == 2
    assert out == ""
    assert err == "error: r=2000000000 is too large: a trial takes at most 1073741823 steps\n"


def test_entropy_seed_is_replayable(capsys):
    code, out, err = run_cli(capsys, "trial", "--state", "one", "--r", "5")
    assert code == 0
    seed_line = [line for line in err.split("\n") if line.startswith("seed: ")]
    assert len(seed_line) == 1
    seed = int(seed_line[0].split(": ")[1])
    _, replay, _ = run_cli(capsys, "trial", "--state", "one", "--r", "5",
                           "--seed", str(seed))
    assert out == replay


def test_cli_import_loads_no_crypto():
    # secrets pulls in hmac and libcrypto (about 3.7 MiB resident) for a
    # seed that os.urandom gives alike
    script = ("import sys\n"
              "import qsdwalk.cli\n"
              "print(sorted({'secrets', '_hashlib'} & set(sys.modules)))\n")
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_out_redirects_payload(capsys, tmp_path):
    path = tmp_path / "trace.csv"
    code, out, err = run_cli(capsys, "trial", "--state", "plus", "--r", "4",
                             "--seed", "7", "--out", str(path))
    assert code == 0
    assert out == ""
    assert "classified: " in err
    lines = path.read_text().strip().split("\n")
    assert lines[0].startswith("trial_id,")
    assert len(lines) == 5

    path = tmp_path / "report.json"
    run_cli(capsys, "experiment", "--states", "zero", "--trials", "50",
            "--seed", "1", "--out", str(path))
    assert json.loads(path.read_text())[0]["state"] == "zero"


def test_module_entrypoint_byte_identical():
    cmd = [sys.executable, "-m", "qsdwalk.cli", "trial", "--state", "minus",
           "--mu", "1", "--r", "20", "--seed", "99"]
    a = subprocess.run(cmd, capture_output=True)
    b = subprocess.run(cmd, capture_output=True)
    assert a.returncode == 0
    assert a.stdout == b.stdout
    assert a.stdout.startswith(b"trial_id,")


def test_out_unwritable_is_usage_error(capsys, tmp_path):
    path = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "experiment", "--trials", "10", "--seed", "1",
                             "--out", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write --out {path}: ")
    assert "Traceback" not in err
    assert not path.exists()


def test_parser_reuse_leaks_no_state(capsys, monkeypatch):
    # main parses every call with one parser per process; each call must
    # print what the same command prints in a fresh interpreter
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
    commands = [
        ["trial", "--state", "plus", "--r", "12", "--seed", "5"],
        ["experiment", "--trials", "10", "--threads", "0", "--seed", "1"],
        ["sweep", "--mu", "1,2", "--trials", "40", "--r", "20", "--seed", "3"],
        ["oracle-check", "--mu-max", "3", "--cases", "20", "--seed", "4"],
        ["trial", "--state", "one", "--mu", "4", "--r", "9", "--k", "3",
         "--mode", "always-apply-h", "--seed", "6"],
    ]
    codes = []
    for argv in commands:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        codes.append(code)
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "qsdwalk.cli", *argv],
                               capture_output=True, text=True)
        assert (code, captured.out, captured.err) == \
            (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert codes == [0, 2, 0, 0, 0]
