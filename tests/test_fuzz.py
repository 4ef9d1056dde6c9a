"""Fuzzed input: every expression and tower file either parses or raises a
DiffTowerError, and the CLI answers bad input with exit 3 and status=error,
never with a traceback."""

import io
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from difftower.cli import main
from difftower.errors import DiffTowerError
from difftower.parser import parse_expr, parse_tower_file

VARS = ("z", "zeta1")
# small numbers keep the powers cheap; the degree cap is tested on its own
TOKENS = ["z", "zeta1", "a", "0", "1", "2", "7", "12", "+", "-", "*", "/",
          "^", "(", ")", " ", ".", "@", "\t"]
token_exprs = st.lists(st.sampled_from(TOKENS), max_size=16).map("".join)
exprs = st.one_of(token_exprs, st.text(max_size=12))
names = st.sampled_from(["a", "b", "z", "1"])
bodies = token_exprs.filter(str.strip)
lines = st.one_of(
    st.builds("gen {0} ; D({0}) = {1}".format, names, bodies),
    st.builds("gen {} ; D({}) = {}".format, names, names, bodies),
    st.builds("subfield {} = [{}, {}]".format, st.sampled_from(["K", "L"]),
              bodies, bodies),
    st.sampled_from(["base z", "base w", "# note", "subfield K = []"]),
    st.text(max_size=12))
# most files start well, so that the later lines are parsed too
tower_files = st.one_of(
    st.lists(lines, max_size=4).map(lambda ls: "\n".join(["base z", *ls])),
    st.text(max_size=30))
FUZZ = settings(max_examples=150, deadline=None)


@FUZZ
@given(exprs)
def test_parse_expr_parses_or_raises_difftower_error(text):
    try:
        parse_expr(text, VARS)
    except DiffTowerError:
        pass


@FUZZ
@given(tower_files)
def test_parse_tower_file_parses_or_raises_difftower_error(text):
    try:
        parse_tower_file(text)
    except DiffTowerError:
        pass


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def log_file(workdir):
    p = workdir / "log.twr"
    p.write_text("base z\ngen zeta1 ; D(zeta1) = 1/z\n")
    return str(p)


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@FUZZ
@given(st.sampled_from(["derive", "const"]), exprs)
def test_cli_answers_bad_expressions_with_exit_3(log_file, command, text):
    try:
        parse_expr(text, VARS)
        bad = False
    except DiffTowerError:
        bad = True
    # a leading '-' would be read as an option; '--' ends the options
    code, out = run([command, "--tower", log_file, "--", text])
    assert code in (0, 1, 2, 3)
    if bad:
        assert code == 3 and "status=error" in out


@FUZZ
@given(tower_files)
def test_cli_answers_bad_tower_files_with_exit_3(workdir, text):
    p = workdir / "fuzzed.twr"
    p.write_text(text)
    code, out = run(["validate", "--tower", str(p)])
    try:
        parse_tower_file(text)
    except DiffTowerError:
        assert code == 3 and "status=error" in out
