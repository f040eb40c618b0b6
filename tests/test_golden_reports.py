"""CLI reports on the shipped instances, byte for byte against golden files.

Every shipped instance runs through validate, analyze, galois, correspond,
correspond --brute-force-subalgebras, zero and galois --budget 1 (the budget
verdict), in text and json-lines; stdout and the
exit code must equal what is recorded under tests/golden/, also for galois
and correspond under python -O.  A change that
is meant to keep behaviour (a refactor, a faster engine) must leave this
test passing unchanged.  After a deliberate change of report content,
regenerate the files with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
INSTANCES = sorted(p.name for p in (REPO / "instances").glob("*.sgi"))
GOLDEN = Path(__file__).resolve().parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"
COMMANDS = {
    "validate": ["validate"],
    "analyze": ["analyze"],
    "galois": ["galois"],
    "correspond": ["correspond"],
    "correspond-brute": ["correspond", "--brute-force-subalgebras"],
    "zero": ["zero"],
    "galois-budget": ["galois", "--budget", "1"],
}
FORMATS = ["text", "json-lines"]
CASES = [(i, c, f) for i in INSTANCES for c in COMMANDS for f in FORMATS]


def _case_name(instance, command, fmt):
    return f"{Path(instance).stem}.{command}.{fmt}"


def _src_env():
    """This environment with the checkout's src first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def run_case(instance, command, fmt, python_flags=()):
    """(exit code, stdout bytes) of one CLI run; `python_flags` go to the
    interpreter."""
    args = [COMMANDS[command][0], f"instances/{instance}", *COMMANDS[command][1:],
            "--format", fmt]
    proc = subprocess.run([sys.executable, *python_flags, "-m", "semigalois.cli", *args],
                          capture_output=True, cwd=REPO, env=_src_env())
    return proc.returncode, proc.stdout


def test_golden_set_covers_every_shipped_instance():
    codes = json.loads(EXIT_CODES.read_text())
    assert sorted(codes) == sorted(_case_name(*case) for case in CASES)


@pytest.mark.parametrize("instance,command,fmt", CASES,
                         ids=[_case_name(*case) for case in CASES])
def test_cli_report_matches_golden(instance, command, fmt):
    name = _case_name(instance, command, fmt)
    code, out = run_case(instance, command, fmt)
    assert code == json.loads(EXIT_CODES.read_text())[name]
    assert out == (GOLDEN / f"{name}.out").read_bytes()


@pytest.mark.parametrize("instance,command", [(i, c) for i in INSTANCES
                                              for c in ("galois", "correspond")])
def test_cli_report_matches_golden_under_optimize(instance, command):
    """Under python -O, which strips asserts, galois and correspond print the
    golden bytes and exit code: no verdict rests on an assert."""
    name = _case_name(instance, command, "text")
    code, out = run_case(instance, command, "text", ["-O"])
    assert code == json.loads(EXIT_CODES.read_text())[name]
    assert out == (GOLDEN / f"{name}.out").read_bytes()


def test_cli_runs_with_numpy_blocked():
    """numpy is no runtime dependency: with its import blocked, the CLI still
    imports and prints the golden report."""
    script = ("import sys; sys.modules['numpy'] = None; import semigalois.cli; "
              "sys.exit(semigalois.cli.main(['galois', 'instances/c2_swap.sgi']))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, cwd=REPO,
                          env=_src_env())
    name = _case_name("c2_swap.sgi", "galois", "text")
    assert proc.stderr == b""
    assert proc.returncode == json.loads(EXIT_CODES.read_text())[name]
    assert proc.stdout == (GOLDEN / f"{name}.out").read_bytes()


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for case in CASES:
        name = _case_name(*case)
        codes[name], out = run_case(*case)
        (GOLDEN / f"{name}.out").write_bytes(out)
    EXIT_CODES.write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    regenerate()
