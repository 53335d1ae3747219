"""End-to-end checks of the command-line front end: report contents,
JSON stability, and exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from lingame import cli, strategies
from lingame.algebra import AbelianGroup
from lingame.errors import GameFormatError
from lingame.games import make_game, serialize_game

import ghz3_c4
from oracles import parse_report, serialize_function

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
CHSH22 = str(FIXTURES / "chsh22.game")
GHZ3 = str(FIXTURES / "ghz3.game")
GHZ3_STRATEGY = str(FIXTURES / "ghz3.strategy")
XYZ_FUNCTION = str(FIXTURES / "xyz.function")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return parse_report(out), out


# ---------------------------------------------------------------------------
# analyze


def test_analyze_chsh22_json(capsys):
    doc, _ = run_json(capsys, "analyze", CHSH22, "--json")
    assert doc["schema"] == "lingame/1"
    assert doc["classical"]["rational"] == "3/4"
    assert doc["classical"]["value"] == 0.75
    assert doc["no_signaling"] == 1.0
    assert doc["quantum_bound"]["value"] == pytest.approx(0.8535533906, abs=1e-9)
    assert doc["sandwich_ok"] is True
    assert "svetlichny" not in doc  # two players


def test_analyze_ghz3_json(capsys):
    doc, _ = run_json(capsys, "analyze", GHZ3, "--json")
    assert doc["classical"]["rational"] == "7/9"
    assert doc["svetlichny"]["rational"] == "1"
    assert doc["biseparable"]["bound"] == pytest.approx(0.8960197525, abs=1e-9)
    assert doc["quantum_bound"]["value"] == pytest.approx(1.0, abs=1e-9)
    assert doc["sandwich_ok"] is True


def test_analyze_with_strategy(capsys):
    doc, _ = run_json(capsys, "analyze", GHZ3, "--json",
                      "--strategy", GHZ3_STRATEGY)
    section = doc["strategy"]
    assert section["success"] == pytest.approx(1.0, abs=1e-9)
    assert section["verdict"] == "GENUINE_TRIPARTITE_ENTANGLEMENT"
    assert section["visibility_threshold"] == pytest.approx(0.84403, abs=1e-4)


def test_analyze_human_output(capsys):
    code, out, _ = run_cli(capsys, "analyze", CHSH22)
    assert code == 0
    assert "0.75 (3/4)" in out
    assert "sandwich        ok" in out
    assert " s]" in out  # timings belong in the human report only


def test_analyze_json_is_byte_identical(capsys):
    _, first = run_json(capsys, "analyze", GHZ3, "--json")
    _, second = run_json(capsys, "analyze", GHZ3, "--json")
    assert first == second


# ---------------------------------------------------------------------------
# chsh


def test_chsh_33(capsys):
    doc, _ = run_json(capsys, "chsh", "--players", "3", "--outcomes", "3",
                      "--json")
    assert doc["agreement"] is True
    assert doc["analytic_bound"] == pytest.approx(0.7182335128, abs=1e-9)
    assert doc["numeric_bound"] == pytest.approx(doc["analytic_bound"],
                                                 abs=1e-9)


def test_chsh_composite_outcomes_exits_1(capsys):
    code, _, err = run_cli(capsys, "chsh", "--players", "2",
                           "--outcomes", "6")
    assert code == 1
    assert "error" in err


# ---------------------------------------------------------------------------
# diew


def test_diew_with_strategy(capsys):
    doc, _ = run_json(capsys, "diew", GHZ3, "--json",
                      "--strategy", GHZ3_STRATEGY)
    assert doc["biseparable"]["bound"] == pytest.approx(0.8960197525,
                                                        abs=1e-9)
    assert {p["lone"] for p in doc["biseparable"]["partitions"]} == {0, 1, 2}
    assert doc["strategy"]["verdict"] == "GENUINE_TRIPARTITE_ENTANGLEMENT"
    assert doc["strategy"]["gap"] == pytest.approx(1 - 0.8960197525, abs=1e-6)
    assert doc["strategy"]["visibility_threshold"] == pytest.approx(
        0.8440296287, abs=1e-9)


def test_diew_strategy_below_bound_has_no_threshold(capsys, tmp_path):
    # unbalanced GHZ state 0.9|000> + r|111> + r|222>: success 0.767,
    # below the biseparable bound, so no visibility beats the bound
    doc = json.loads(Path(GHZ3_STRATEGY).read_text())
    r = ((1 - 0.81) / 2) ** 0.5
    amplitudes = [[0.0, 0.0]] * 27
    amplitudes[0], amplitudes[13], amplitudes[26] = [0.9, 0.0], [r, 0.0], [r, 0.0]
    doc["state"] = {"amplitudes": amplitudes}
    path = tmp_path / "unbalanced.strategy"
    path.write_text(json.dumps(doc))
    report, _ = run_json(capsys, "diew", GHZ3, "--json", "--strategy", str(path))
    assert report["strategy"]["success"] == pytest.approx(0.7665315068, abs=1e-9)
    assert report["strategy"]["verdict"] == "INCONCLUSIVE"
    assert report["strategy"]["visibility_threshold"] is None


def test_threshold_uses_noise_baseline_of_rank_two_strategy(capsys, tmp_path):
    # outcome 0 has rank two on C^4: white noise wins with 49/144, so the
    # threshold is the crossing 0.8423878354, not 0.8440296287 from 1/3
    path = tmp_path / "ghz3_c4.strategy"
    path.write_text(json.dumps(ghz3_c4.document()))
    for command in ("diew", "analyze"):
        report, _ = run_json(capsys, command, GHZ3, "--json",
                             "--strategy", str(path))
        assert report["strategy"]["success"] == pytest.approx(1.0, abs=1e-9)
        assert report["strategy"]["visibility_threshold"] == ghz3_c4.THRESHOLD


@pytest.mark.parametrize("command", ["diew", "analyze"])
def test_strategy_section_runs_the_born_rule_once(capsys, monkeypatch,
                                                  command):
    # one Born table per strategy gives the success, the verdict and the
    # threshold; white noise takes its own table, and no behavior is built
    counts = {"_born_table": 0, "_noise_table": 0, "strategy_behavior": 0,
              "Behavior": 0}
    for name in counts:
        original = getattr(strategies, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)
        monkeypatch.setattr(strategies, name, counted)
    doc, _ = run_json(capsys, command, GHZ3, "--json",
                      "--strategy", GHZ3_STRATEGY)
    assert counts == {"_born_table": 1, "_noise_table": 1,
                      "strategy_behavior": 0, "Behavior": 0}
    assert doc["strategy"]["visibility_threshold"] == pytest.approx(
        0.8440296287, abs=1e-9)


def test_diew_human_verdict_line(capsys):
    code, out, _ = run_cli(capsys, "diew", GHZ3, "--strategy", GHZ3_STRATEGY)
    assert code == 0
    assert "genuine tripartite entanglement" in out


# ---------------------------------------------------------------------------
# separable


def test_separable_yes(capsys, tmp_path):
    group = AbelianGroup((3,))
    game = make_game(group, (3, 3),
                     [( (x + y) % 3,) for x in range(3) for y in range(3)])
    path = tmp_path / "sum.game"
    path.write_text(serialize_game(game))
    doc, _ = run_json(capsys, "separable", str(path), "--json")
    assert doc["separable"] is True
    assert "offsets" in doc and "witness" in doc


def test_separable_no(capsys):
    doc, _ = run_json(capsys, "separable", CHSH22, "--json")
    assert doc["separable"] is False
    assert "offsets" not in doc


def test_separable_needs_uniform_inputs(capsys):
    # the promise game has zero-probability questions
    code, _, err = run_cli(capsys, "separable", GHZ3)
    assert code == 1
    assert "uniform" in err


# ---------------------------------------------------------------------------
# boxes


def test_boxes_run(capsys):
    doc, first = run_json(capsys, "boxes", "run", XYZ_FUNCTION, "--json",
                          "--shots", "5", "--seed", "3")
    assert doc["all_correct"] is True
    assert doc["boxes_per_run"] == 27
    assert doc["dits_per_run"] == 2
    assert len(doc["runs"]) == 5
    for run in doc["runs"]:
        assert run["result"] == run["expected"]
    _, second = run_json(capsys, "boxes", "run", XYZ_FUNCTION, "--json",
                         "--shots", "5", "--seed", "3")
    assert first == second


def test_boxes_run_seed_changes_inputs(capsys):
    doc3, _ = run_json(capsys, "boxes", "run", XYZ_FUNCTION, "--json",
                       "--shots", "5", "--seed", "3")
    doc4, _ = run_json(capsys, "boxes", "run", XYZ_FUNCTION, "--json",
                       "--shots", "5", "--seed", "4")
    assert doc3["runs"] != doc4["runs"]


@pytest.mark.parametrize("shots, runs", [(-1, None), (0, 0), (1, 1)])
def test_boxes_run_shot_counts(capsys, shots, runs):
    # The boxes and dits per run come from the table, with or without runs;
    # a negative count is refused.
    code, out, err = run_cli(capsys, "boxes", "run", XYZ_FUNCTION, "--json",
                             "--shots", str(shots))
    if runs is None:
        assert code == 1
        assert out == ""
        assert "shots must be non-negative, got -1" in err
        return
    assert code == 0, err
    doc = parse_report(out)
    assert (doc["shots"], len(doc["runs"])) == (shots, runs)
    assert (doc["boxes_per_run"], doc["dits_per_run"]) == (27, 2)
    assert doc["all_correct"] is True


def test_boxes_reduce_xyz(capsys):
    doc, _ = run_json(capsys, "boxes", "reduce", XYZ_FUNCTION, "--json")
    assert doc["reducible"] is True
    assert doc["reduction"]["order"] == [0, 0, 0]
    assert doc["reduction"]["lambda"] == 1


def test_boxes_reduce_additive(capsys, tmp_path):
    from lingame.boxworld import FunctionTable
    import itertools
    values = [(x + y + z) % 3
              for x, y, z in itertools.product(range(3), repeat=3)]
    path = tmp_path / "sum.function"
    path.write_text(serialize_function(FunctionTable(3, (1, 1, 1), values)))
    doc, _ = run_json(capsys, "boxes", "reduce", str(path), "--json")
    assert doc["reducible"] is False
    assert "reduction" not in doc


# ---------------------------------------------------------------------------
# exit codes and plumbing


def test_missing_file_exits_1(capsys):
    code, _, err = run_cli(capsys, "analyze", "no-such-file.game")
    assert code == 1
    assert "cannot read" in err


def test_malformed_game_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.game"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "analyze", str(path))
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["analyze", None], ["boxes", "run", None],
    ["diew", GHZ3, "--strategy", None]],
    ids=["analyze", "boxes-run", "diew-strategy"])
def test_a_file_that_is_not_utf8_exits_1(capsys, tmp_path, argv):
    """A file that starts with a UTF-16 byte-order mark ended every
    subcommand in a UnicodeDecodeError traceback."""
    path = tmp_path / "utf16.json"
    path.write_bytes("{}".encode("utf-16"))
    code, out, err = run_cli(capsys, *[a or str(path) for a in argv])
    assert (code, out) == (1, "")
    assert err == ("lingame: error: not UTF-8 text: invalid start byte at "
                   "byte offset 0\n")


def test_a_negative_seed_is_a_usage_error(capsys):
    # numpy's default_rng refused it with a ValueError traceback
    with pytest.raises(SystemExit) as exc:
        cli.main(["boxes", "run", XYZ_FUNCTION, "--seed", "-1"])
    assert exc.value.code == 1
    assert "argument --seed: expected a non-negative integer, got '-1'" in (
        capsys.readouterr().err)


def test_cap_exceeded_exits_2(capsys):
    code, _, err = run_cli(capsys, "analyze", GHZ3, "--cap", "1")
    assert code == 2
    assert "cap" in err


def test_cap_zero_is_a_cap_that_is_exceeded(capsys):
    code, _, err = run_cli(capsys, "analyze", CHSH22, "--cap", "0")
    assert code == 2
    assert "cap is 0" in err


@pytest.mark.parametrize("flag, value", [
    ("--cap", "-3"), ("--cap", "2.5"), ("--tolerance", "nan"),
    ("--tolerance", "inf"), ("--tolerance", "-1e-9"), ("--tolerance", "x")])
def test_bad_cap_or_tolerance_is_a_usage_error(capsys, flag, value):
    # --cap -3 used to exit 2 ("cap is -3"), and --tolerance nan printed an
    # inconclusive verdict for a certified witness, with exit 0.
    with pytest.raises(SystemExit) as exc:
        cli.main(["diew", GHZ3, "--strategy", GHZ3_STRATEGY, flag, value])
    assert exc.value.code == 1
    assert f"argument {flag}: expected" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["chsh", "--players", "3", "--outcomes", "3", "--cap", "1"],
    ["separable", GHZ3, "--tolerance", "3"],
    ["boxes", "reduce", XYZ_FUNCTION, "--cap", "5"],
    ["boxes", "run", XYZ_FUNCTION, "--tolerance", "7"]],
    ids=["chsh-cap", "separable-tolerance", "reduce-cap", "run-tolerance"])
def test_a_flag_the_subcommand_does_not_read_is_a_usage_error(capsys, argv):
    """--cap is read only by analyze and diew, --tolerance only by analyze,
    chsh and diew; elsewhere either would be a setting that does nothing."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 1
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in (
        capsys.readouterr().err)


def test_zero_tolerance_still_certifies(capsys):
    doc, _ = run_json(capsys, "diew", GHZ3, "--strategy", GHZ3_STRATEGY,
                      "--tolerance", "0", "--json")
    assert doc["strategy"]["verdict"] == "GENUINE_TRIPARTITE_ENTANGLEMENT"


def test_unknown_flag_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", CHSH22, "--frobnicate"])
    assert exc.value.code == 1


def test_missing_subcommand_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 1


def test_one_parser_serves_every_call(capsys):
    # main builds its parser once; no option of one call leaks into the next.
    doc, _ = run_json(capsys, "boxes", "run", XYZ_FUNCTION, "--json",
                      "--shots", "2", "--seed", "5")
    assert (doc["shots"], doc["seed"]) == (2, 5)
    doc, _ = run_json(capsys, "analyze", GHZ3, "--json",
                      "--strategy", GHZ3_STRATEGY)
    assert "strategy" in doc
    doc, _ = run_json(capsys, "chsh", "--players", "2", "--outcomes", "2",
                      "--json")
    assert doc["agreement"] is True
    with pytest.raises(SystemExit) as exc:
        cli.main(["boxes", "run", XYZ_FUNCTION, "--shots", "many"])
    assert exc.value.code == 1
    assert "invalid int value" in capsys.readouterr().err
    doc, _ = run_json(capsys, "boxes", "run", XYZ_FUNCTION, "--json")
    assert (doc["shots"], doc["seed"]) == (10, 0)
    doc, _ = run_json(capsys, "analyze", GHZ3, "--json")
    assert "strategy" not in doc
    assert cli._build_parser() is cli._build_parser()


def test_parse_report_rejects_foreign_json():
    with pytest.raises(GameFormatError):
        parse_report(json.dumps({"schema": "other/9"}))
    with pytest.raises(GameFormatError):
        parse_report("[1, 2, 3]")
    for text in ("", "{", "not json"):
        with pytest.raises(GameFormatError, match="invalid JSON"):
            parse_report(text)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lingame.cli", "analyze", CHSH22, "--json"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    doc = parse_report(proc.stdout)
    assert doc["classical"]["rational"] == "3/4"


GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_COMMANDS = [line.split() for line in
                   (GOLDEN / "commands.txt").read_text().splitlines()]


@pytest.mark.parametrize("name, argv",
                         [(c[0], c[1:]) for c in GOLDEN_COMMANDS],
                         ids=[c[0] for c in GOLDEN_COMMANDS])
def test_json_report_matches_golden(capsys, monkeypatch, name, argv):
    # The commands name fixtures relative to the repository root, as the
    # CI step that runs the installed console script does.
    monkeypatch.chdir(FIXTURES.parent)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert out.encode() == (GOLDEN / name).read_bytes()


def test_analyze_reports_no_signaling_without_building_its_behavior(
        capsys, monkeypatch):
    """The no-signaling value of every linear game is 1: the analyze
    reports give it without the behavior ``no_signaling_value`` builds,
    byte for byte as the goldens hold it."""
    def no_behavior(*args):
        raise AssertionError("the no-signaling behavior was built")

    monkeypatch.setattr("lingame.values.target_behavior", no_behavior)
    monkeypatch.chdir(FIXTURES.parent)
    analyze = [c for c in GOLDEN_COMMANDS if c[1] == "analyze"]
    assert len(analyze) == 3
    for name, *argv in analyze:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert out.encode() == (GOLDEN / name).read_bytes()
