import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from semigalois import instance as inst

REPO = Path(__file__).resolve().parent.parent
INSTANCES = REPO / "instances"


def run_cli(args, env=None):
    """(exit code, stdout, stderr) of one CLI run, with `env` added to the environment."""
    proc = subprocess.run([sys.executable, "-m", "semigalois.cli", *args],
                          capture_output=True, cwd=REPO, env={**os.environ, **(env or {})})
    return proc.returncode, proc.stdout, proc.stderr


def _assert_usage_error(code, err, message):
    assert code == 2
    assert b"usage: semigalois" in err and message in err
    assert b"Traceback" not in err


def test_bad_seed_setting_is_a_usage_error():
    code, _, err = run_cli(["galois", "instances/c2_swap.sgi"], {"SEMIGALOIS_SEED": "abc"})
    _assert_usage_error(code, err, b"argument --seed: invalid int value: 'abc'")


def test_bad_guard_setting_is_a_usage_error():
    """SEMIGALOIS_BUDGET, which replaced the guard setting, is validated like it."""
    code, _, err = run_cli(["galois", "instances/c2_swap.sgi"], {"SEMIGALOIS_BUDGET": "x"})
    _assert_usage_error(code, err, b"argument --budget: invalid int value: 'x'")


def test_unknown_format_setting_is_a_usage_error():
    code, out, err = run_cli(["galois", "instances/c2_swap.sgi"], {"SEMIGALOIS_FORMAT": "xml"})
    _assert_usage_error(code, err, b"argument --format: invalid choice: 'xml'")
    assert out == b""


def test_brute_force_setting_is_case_insensitive():
    code, out, _ = run_cli(["correspond", "instances/c2_swap.sgi"],
                           {"SEMIGALOIS_BRUTE_FORCE_SUBALGEBRAS": "TRUE"})
    assert code == 0
    assert b"ok   brute_force_match" in out


def test_unknown_brute_force_setting_is_a_usage_error():
    code, out, err = run_cli(["correspond", "instances/c2_swap.sgi"],
                             {"SEMIGALOIS_BRUTE_FORCE_SUBALGEBRAS": "maybe"})
    _assert_usage_error(code, err,
                        b"argument --brute-force-subalgebras: invalid boolean value: 'maybe'")
    assert out == b""


def test_brute_force_flag_overrides_a_bad_setting():
    code, out, _ = run_cli(["correspond", "instances/c2_swap.sgi", "--brute-force-subalgebras"],
                           {"SEMIGALOIS_BRUTE_FORCE_SUBALGEBRAS": "maybe"})
    assert code == 0
    assert b"ok   brute_force_match" in out


def test_guard_flag_below_one_is_a_usage_error():
    """--budget, which replaced --guard-max-order, must be at least 1 as well."""
    code, _, err = run_cli(["galois", "instances/c2_swap.sgi", "--budget", "0"])
    _assert_usage_error(code, err, b"argument --budget: must be at least 1, got 0")


def test_old_guard_spellings_are_unknown(tmp_path):
    code, _, err = run_cli(["galois", "instances/c2_swap.sgi", "--guard-max-order", "5"])
    _assert_usage_error(code, err, b"unrecognized arguments: --guard-max-order 5")
    p = tmp_path / "old.sgi"
    p.write_text((INSTANCES / "c2_swap.sgi").read_text() + "\n[options]\nguard-max-order = 5\n")
    code, out, err = run_cli(["galois", str(p)])
    assert code == 2 and out == b"" and b"unknown option 'guard-max-order'" in err


def test_small_budget_is_a_reported_verdict():
    """A trip inside the command ends the report with FAIL budget and exits 3.
    correspond solves no coordinate system, so its first charged work is the
    kernel of A^beta."""
    code, out, err = run_cli(["correspond", "instances/c2_swap.sgi", "--budget", "5"])
    assert code == 3 and err == b""
    lines = out.decode().splitlines()
    assert lines[-2:] == ["FAIL budget  quantity=echelon_entries  spent=7  limit=5",
                          "# result: FAIL"]


def test_budget_trip_while_loading_is_an_error_line():
    """S7 is given by a presentation, and its first scan already costs more than 1."""
    code, out, err = run_cli(["validate", "instances/s7_f9cubed.sgi"], {"SEMIGALOIS_BUDGET": "1"})
    assert code == 3 and out == b""
    assert err == b"error: budget: quantity=coset_steps  spent=38  limit=1\n"


def test_budget_in_the_file_wins_over_the_flag(tmp_path):
    p = tmp_path / "budget.sgi"
    p.write_text((INSTANCES / "c2_swap.sgi").read_text() + "\n[options]\nbudget = 1\n")
    code, out, _ = run_cli(["galois", str(p), "--budget", "1000000"])
    assert code == 3 and b"FAIL budget" in out


@pytest.mark.parametrize("atom", ["zmod 2305843009213693951 1", "zmod 2 2000000000"])
def test_huge_atom_is_refused_before_any_arithmetic(tmp_path, atom):
    """Bounds on p and k come before the primality test and before p ** k."""
    p = tmp_path / "huge.sgi"
    p.write_text(f"[semigroup]\nelements = 1\nrow = 1\n[ring]\natom = {atom}\n"
                 "[action]\nmap = 1 : 0->0:0\n")
    t0 = time.monotonic()
    code, out, err = run_cli(["validate", str(p)])
    assert time.monotonic() - t0 < 5
    assert code == 2 and out == b""
    assert err.startswith(b"error: line 5: bad atom spec: atom order ") and b"out of range" in err


def test_shipped_fixture_parses():
    parsed = inst.parse_instance(INSTANCES / "s7_f9cubed.sgi")
    assert parsed.semigroup.n == 7
    assert parsed.ring.size == 729


def test_empty_file_positioned_error(tmp_path):
    p = tmp_path / "empty.sgi"
    p.write_text("")
    with pytest.raises(inst.ParseError) as err:
        inst.parse_instance(p)
    assert err.value.line_no == 1


def test_non_associative_table_names_the_failure(tmp_path):
    p = tmp_path / "bad.sgi"
    p.write_text("""
[semigroup]
elements = a b c
row = a b c
row = b a a
row = c a b

[ring]
atom = zmod 3

[action]
map = a : 0->0:0
map = b : 0->0:0
map = c : 0->0:0
""")
    code, out, err = run_cli(["validate", str(p)])
    assert code == 2
    assert b"error" in err


def test_unknown_generator_errors(tmp_path):
    p = tmp_path / "gen.sgi"
    p.write_text("""
[semigroup]
generators = s
relation = s s : q

[ring]
atom = zmod 2

[action]
map = 1 : 0->0:0
""")
    code, out, err = run_cli(["validate", str(p)])
    assert code == 2 and b"unknown generator" in err


def test_determinism_identical_bytes():
    code1, out1, _ = run_cli(["galois", "instances/c2_swap.sgi"])
    code2, out2, _ = run_cli(["galois", "instances/c2_swap.sgi"])
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3, _ = run_cli(["correspond", "instances/s7_f9cubed.sgi",
                              "--format", "json-lines"])
    code4, out4, _ = run_cli(["correspond", "instances/s7_f9cubed.sgi",
                              "--format", "json-lines"])
    assert code3 == code4 == 0
    assert out3 == out4


def test_exit_code_contract_on_failing_verdict(tmp_path):
    p = tmp_path / "nongalois.sgi"
    p.write_text("""
# C2 swapping two F_2 atoms and fixing a third: not Galois
[semigroup]
elements = 1 g
row = 1 g
row = g 1

[ring]
atom = zmod 2
atom = zmod 2
atom = zmod 2

[action]
map = 1 : 0->0:0 1->1:0 2->2:0
map = g : 0->1:0 1->0:0 2->2:0
""")
    code, out, err = run_cli(["galois", str(p)])
    assert code == 1
    assert b"FAIL" in out


def test_json_lines_schema_and_round_trip():
    code, out, _ = run_cli(["galois", "instances/s7_f9cubed.sgi",
                            "--format", "json-lines"])
    assert code == 0
    lines = [json.loads(line) for line in out.decode().splitlines()]
    assert lines[0]["type"] == "header"
    assert lines[0]["schema"] == "semigalois-report"
    assert lines[0]["version"] == 1
    assert lines[-1]["type"] == "summary" and lines[-1]["ok"]
    checks = {l["name"]: l for l in lines if l["type"] == "check"}
    assert checks["criterion_coordinates"]["verdict"]
    # certificate fields survive the round trip
    assert "pairs" in checks["coordinates"]["data"]
    assert checks["psi_orders"]["data"]["tensor"] == 531441


def test_zero_command_on_b2():
    code, out, _ = run_cli(["zero", "instances/b2_f3f3.sgi"])
    assert code == 0
    assert b"groupoid_round_trip" in out


def test_zero_command_rejects_zero_free():
    code, out, err = run_cli(["zero", "instances/c2_swap.sgi"])
    assert code == 1
    assert b"precondition" in out


def test_correspond_rejects_declared_zero():
    code, out, err = run_cli(["correspond", "instances/b2_f3f3.sgi"])
    assert code == 1
    assert b"precondition" in out


def test_analyze_flags():
    code, out, _ = run_cli(["analyze", "instances/b2_f3f3.sgi"])
    assert code == 0
    assert b"tau_classes" in out and b"zero_e_unitary" in out


def test_brute_force_flag_and_env(tmp_path, monkeypatch):
    code, out, _ = run_cli(["correspond", "instances/c2_swap.sgi",
                            "--brute-force-subalgebras"])
    assert code == 0 and b"brute_force_match" in out


def test_instance_serialization_round_trip():
    from semigalois.corpus import f9_cubed_fixture
    beta = f9_cubed_fixture()
    text = inst.action_to_instance_text(beta, comment="round trip")
    parsed = inst.parse_instance_text(text)
    assert parsed.semigroup.table == beta.S.table
    assert parsed.ring == beta.A
    assert list(parsed.action.isos) == list(beta.isos)


def test_selftest_runs_clean():
    code, out, _ = run_cli(["selftest"])
    assert code == 0
    assert b"result: PASS" in out


def test_options_section_overrides(tmp_path):
    p = tmp_path / "opts.sgi"
    p.write_text("""
[semigroup]
elements = 1
row = 1

[ring]
atom = zmod 3

[action]
map = 1 : 0->0:0

[options]
seed = 17
brute-force-subalgebras = true
""")
    code, out, _ = run_cli(["correspond", str(p)])
    assert code == 0
    assert b"seed=17" in out
    assert b"brute_force_match" in out


def test_options_guard_below_one_is_a_positioned_error(tmp_path):
    """The [options] budget key, which replaced guard-max-order, must be at least 1."""
    p = tmp_path / "guard.sgi"
    p.write_text("""
[semigroup]
elements = 1
row = 1

[ring]
atom = zmod 3

[action]
map = 1 : 0->0:0

[options]
budget = -5
""")
    with pytest.raises(inst.ParseError) as err:
        inst.parse_instance(p)
    assert err.value.line_no == 13
    code, out, err = run_cli(["galois", str(p)])
    assert code == 2 and out == b""
    assert b"line 13" in err and b"budget must be at least 1" in err
    assert b"Traceback" not in err


def test_analyze_on_a_group():
    code, out, _ = run_cli(["analyze", "instances/c2_swap.sgi"])
    assert code == 0
    assert b"e_unitary" in out
    assert b"sigma_classes  classes=[[1],[g]]" in out


def test_twist_on_zmod_atom_is_a_positioned_error(tmp_path):
    good = "map = g : 0->1:0 1->0:0"
    text = (INSTANCES / "c2_swap.sgi").read_text()
    line_no = text.splitlines().index(good) + 1
    p = tmp_path / "twisted.sgi"
    p.write_text(text.replace(good, "map = g : 0->1:1 1->0:0"))
    with pytest.raises(inst.ParseError) as err:
        inst.parse_instance(p)
    assert err.value.line_no == line_no
    code, out, err = run_cli(["galois", str(p)])
    assert code == 2 and out == b""
    assert f"line {line_no}:".encode() in err and b"admits no twist" in err


@pytest.mark.parametrize("command,name", [("correspond", "c2_swap"), ("zero", "b2_f3f3")])
def test_both_correspondence_commands_print_failure_lines(monkeypatch, command, name):
    """A T list missing its first T fails the brute-force match on both commands."""
    from semigalois import cli, correspondence, zerocase
    route = (correspondence, "enumerate_beta_complete") if command == "correspond" \
        else (zerocase, "enumerate_beta_maximal")
    all_ts = getattr(*route)
    monkeypatch.setattr(*route, lambda beta: all_ts(beta)[1:])
    beta = inst.parse_instance(INSTANCES / f"{name}.sgi").action
    report = cli.Report(command, "-", 0)
    getattr(cli, f"cmd_{command}")(beta, report, {"brute-force-subalgebras": True})
    lines = cli.emit_report(report).decode().splitlines()
    assert lines[-4:] == ["FAIL bijection", "FAIL brute_force_match",
                          "failure  detail=[brute-force subalgebra scan mismatch]",
                          "# result: FAIL"]


def test_documented_settings_match_the_parser(monkeypatch):
    """docs/format.md names exactly the flags, SEMIGALOIS_* variables and
    [options] keys that the CLI and the instance loader accept."""
    from semigalois import cli
    doc = (REPO / "docs" / "format.md").read_text()
    flags = {o for a in cli.build_parser()._actions for o in a.option_strings
             if o.startswith("--") and o != "--help"}
    assert set(re.findall(r"`(--[a-z][a-z-]*)", doc)) == flags
    names = {f[2:] for f in flags} | {"guard-max-order"}
    read = set()
    for var in {cli.ENV_PREFIX + n.upper().replace("-", "_") for n in names}:
        monkeypatch.setenv(var, "sentinel")
        if "sentinel" in {a.default for a in cli.build_parser()._actions}:
            read.add(var)
        monkeypatch.delenv(var)
    assert set(re.findall(r"SEMIGALOIS_[A-Z_]+", doc)) == read
    block = doc.split("## `[options]`", 1)[1].split("```")[1]
    documented = {line.split("=")[0].strip() for line in block.splitlines() if "=" in line}
    accepted = set()
    for key in names | documented:
        try:
            inst._parse_options([(1, f"{key} = 1")])
            accepted.add(key)
        except inst.ParseError as exc:
            assert "unknown option" in str(exc)
    assert documented == accepted


def test_one_parser_reads_the_environment_on_every_call(monkeypatch, capsysbinary):
    """cli.main reuses one parser; each call sees the SEMIGALOIS_* settings of
    its own moment."""
    from semigalois import cli
    path = str(INSTANCES / "c2_swap.sgi")
    parser = cli.parser()
    monkeypatch.setenv("SEMIGALOIS_BUDGET", "1")
    monkeypatch.setenv("SEMIGALOIS_FORMAT", "json-lines")
    assert cli.main(["galois", path]) == 3
    first = capsysbinary.readouterr().out.decode().splitlines()
    monkeypatch.setenv("SEMIGALOIS_BUDGET", str(cli.DEFAULT_BUDGET))
    monkeypatch.setenv("SEMIGALOIS_FORMAT", "text")
    assert cli.main(["galois", path]) == 0
    second = capsysbinary.readouterr().out.decode().splitlines()
    assert cli.parser() is parser
    assert json.loads(first[0])["type"] == "header"
    assert any(json.loads(line).get("name") == "budget" for line in first)
    assert second[0].startswith("# semigalois report") and second[-1] == "# result: PASS"
    monkeypatch.delenv("SEMIGALOIS_BUDGET")
    monkeypatch.setenv("SEMIGALOIS_SEED", "7")
    assert cli.main(["galois", path, "--format", "text"]) == 0
    assert b"seed=7" in capsysbinary.readouterr().out.splitlines()[0]
