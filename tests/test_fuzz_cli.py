"""Fuzzed instance files through the loader and the CLI.

Each example starts from a shipped instance and replaces, inserts or
deletes lines built from the format's own section headers, keys and values,
mixed with junk and huge integers; a second test then splices in bytes that
are not UTF-8 or are NUL, and a third passes a directory.  Every command
must end in one of the documented exit codes (0 verdicts hold, 1 a verdict
fails, 2 an input error, 3 the budget ran out) and never raise.  The run is
derandomized, so tier-1 sees the same examples every time.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from semigalois import cli

INSTANCES = Path(__file__).resolve().parent.parent / "instances"
SHIPPED = [p.read_text().splitlines() for p in sorted(INSTANCES.glob("*.sgi"))]
COMMANDS = ["validate", "analyze", "galois", "correspond", "zero"]

HUGE = st.sampled_from(["0", "-1", "1", "2", "3", "4", "7", "20", "21", "1048576", "1048573",
                        "2305843009213693951", "2000000000", "9" * 40, "-" + "9" * 40])
NAME = st.sampled_from(["1", "g", "s", "s'", "t", "e", "0", "z", "x y"])
JUNK = st.text(alphabet="[]=:->',# 0123456789abgz\t", max_size=20)


def _words(elements, n):
    return st.lists(elements, min_size=0, max_size=n).map(" ".join)


LINE = st.one_of(
    st.sampled_from(["[semigroup]", "[ring]", "[action]", "[options]", "[other]", "[", ""]),
    st.builds("elements = {}".format, _words(NAME, 4)),
    st.builds("row = {}".format, _words(NAME, 4)),
    st.builds("zero = {}".format, NAME),
    st.builds("generators = {}".format, _words(st.sampled_from(["s", "t", "u"]), 3)),
    st.builds("relation = {} : {}".format, _words(st.sampled_from(["s", "t", "s'", "1"]), 4),
              _words(st.sampled_from(["s", "t", "t'", "1"]), 4)),
    st.builds("atom = {} {} {}".format, st.sampled_from(["zmod", "gf", "z"]), HUGE, HUGE),
    st.builds("atom = gf {} {} poly={}".format, HUGE, HUGE, _words(HUGE, 3).map(
        lambda s: s.replace(" ", ","))),
    st.builds("map = {} : {}".format, NAME, _words(st.one_of(
        st.builds("{}->{}:{}".format, HUGE, HUGE, HUGE), st.sampled_from(["empty", "dom=0", "im=1,2"]),
        JUNK), 3)),
    st.builds("{} = {}".format, st.sampled_from(["seed", "budget", "brute-force-subalgebras",
                                                 "brute_force_subalgebras", "guard-max-order"]),
              st.one_of(HUGE, st.sampled_from(["true", "no", "maybe", ""]))),
    JUNK,
)
EDIT = st.tuples(st.sampled_from(["replace", "insert", "delete"]), st.integers(0, 40), LINE)


@st.composite
def instance_text(draw):
    lines = list(draw(st.sampled_from(SHIPPED)))
    for kind, at, line in draw(st.lists(EDIT, max_size=3)):
        at %= len(lines) + 1
        if kind == "insert":
            lines.insert(at, line)
        elif at < len(lines):
            if kind == "replace":
                lines[at] = line
            else:
                del lines[at]
    return "\n".join(lines) + "\n"


def _run(command, path):
    """(exit code, stderr) of one in-process CLI run."""
    stdout, stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main([command, str(path), "--budget", "20000"])
    return code, stderr.getvalue()


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=instance_text(), command=st.sampled_from(COMMANDS))
def test_fuzzed_instances_end_in_an_exit_code(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.sgi"
        path.write_text(text)
        code, _ = _run(command, path)
    assert code in (0, 1, 2, 3)


# invalid UTF-8 (a lone continuation byte, a truncated or overlong sequence,
# an encoded surrogate, bytes UTF-8 never uses) and NUL, which decodes
CHUNK = st.sampled_from([b"\x80", b"\xff", b"\xfe\xff", b"\xc3(", b"\xe2\x82", b"\xc0\xaf",
                         b"\xed\xa0\x80", b"\xf8\x88\x80\x80\x80", b"\x00", b"\x00\x00"])


@st.composite
def instance_bytes(draw):
    data = bytearray(draw(instance_text()).encode())
    for at, chunk in draw(st.lists(st.tuples(st.integers(0, 4000), CHUNK), min_size=1, max_size=3)):
        at %= len(data) + 1
        data[at:at] = chunk
    return bytes(data)


@settings(max_examples=150, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=instance_bytes(), command=st.sampled_from(COMMANDS))
def test_fuzzed_bytes_end_in_an_exit_code(data, command):
    """A file that is not UTF-8 is an input error on the line of its first
    bad byte; NULs reach the parser like any other character."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.sgi"
        path.write_bytes(data)
        code, err = _run(command, path)
    assert code in (0, 1, 2, 3)
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data[:exc.start].count(b"\n") + 1
        assert code == 2
        assert err == f"error: line {line_no}: not UTF-8 text: byte 0x{data[exc.start]:02x}\n"


def test_a_directory_is_an_input_error():
    with tempfile.TemporaryDirectory() as tmp:
        for command in COMMANDS:
            code, err = _run(command, tmp)
            assert code == 2 and err == f"error: cannot read {tmp}: Is a directory\n"
