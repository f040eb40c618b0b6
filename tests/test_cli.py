import json
import subprocess
import sys
from pathlib import Path

import pytest

from semigalois import instance as inst

REPO = Path(__file__).resolve().parent.parent
INSTANCES = REPO / "instances"


def run_cli(args):
    proc = subprocess.run([sys.executable, "-m", "semigalois.cli", *args],
                          capture_output=True, cwd=REPO)
    return proc.returncode, proc.stdout, proc.stderr


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
