"""Parser, printer and CLI subcommands."""

import argparse
import ast
import inspect
import io
import random
import time
from contextlib import redirect_stdout

import pytest

from difftower import ansatz, cli, corpus
from difftower.cli import main
from difftower.errors import (BoundsExceeded, DiffTowerError,
                              ExprSyntaxError, ForwardReference,
                              NotAntiderivative, TowerFileError,
                              UnknownSymbol)
from difftower.parser import (format_mpoly, format_ratfun, parse_expr,
                              parse_tower_file)
from difftower.randexpr import random_ratfun, random_tower
from difftower.ratfun import RatFun
from difftower.structure import NotLinearField
from difftower.tower import Tower, tower_from_pairs

LOG_TWR = """base z
gen zeta1 ; D(zeta1) = 1/z
subfield K = [zeta1/z]
"""

LOGLOG_TWR = """base z
gen zeta1 ; D(zeta1) = 1/z
gen zeta2 ; D(zeta2) = 1/(zeta1*z)
"""

BASE_TWR = "base z\n"


def run(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


@pytest.fixture
def log_file(tmp_path):
    p = tmp_path / "log.twr"
    p.write_text(LOG_TWR)
    return str(p)


@pytest.fixture
def loglog_file(tmp_path):
    p = tmp_path / "loglog.twr"
    p.write_text(LOGLOG_TWR)
    return str(p)


@pytest.fixture
def towers(tmp_path):
    texts = {"log": LOG_TWR, "loglog": LOGLOG_TWR, "base": BASE_TWR,
             "q2": "base z\ngen zeta1 ; D(zeta1) = 1/z\n"
                   "subfield Q2 = [zeta1^2]\n",
             "dup": LOG_TWR + "subfield K = [z]\n",
             "empty": LOG_TWR + "subfield E = []\n"}
    paths = {}
    for name, text in texts.items():
        p = tmp_path / f"{name}.twr"
        p.write_text(text)
        paths[name] = str(p)
    return paths


class TestParseExpr:
    def test_examples(self):
        v = ("z",)
        assert parse_expr("1/z + z^2", v) == parse_expr("(z^3 + 1)/z", v)
        v3 = ("a", "b", "c")
        assert parse_expr("a+b*c", v3) \
            == parse_expr("a", v3) + parse_expr("b", v3) * parse_expr("c", v3)

    def test_precedence_and_associativity(self):
        v = ("z",)
        assert parse_expr("2*z^2", v) == parse_expr("2*(z^2)", v)
        assert parse_expr("1 - 2 - 3", v) == parse_expr("-4", v)
        assert parse_expr("8/2/2", v) == parse_expr("2", v)

    def test_negative_exponent(self):
        v = ("z",)
        assert parse_expr("z^-2", v) == parse_expr("1/z^2", v)

    def test_unary_minus(self):
        v = ("z",)
        assert parse_expr("-z + 1", v) == parse_expr("1 - z", v)
        assert parse_expr("2*(-z + 1)", v) == parse_expr("2 - 2*z", v)

    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError) as e:
            parse_expr("(z", ("z",))
        assert e.value.position is not None

    def test_deep_nesting_is_syntax_error(self):
        v = ("z",)
        assert parse_expr("(" * 100 + "z" + ")" * 100, v) == parse_expr("z", v)
        # the cap is on depth, not on the number of parentheses
        assert parse_expr("*".join(["(z)"] * 150), v) == parse_expr("z^150", v)
        with pytest.raises(ExprSyntaxError) as e:
            parse_expr("(" * 300 + "z" + ")" * 300, v)
        assert e.value.position == 100

    @pytest.mark.parametrize("text", ["(z+1)^3000", "((z+1)^100)^100",
                                      "3^10000000", "(1/(z+1))^-1001"])
    def test_oversized_power_is_syntax_error(self, text):
        start = time.perf_counter()
        with pytest.raises(ExprSyntaxError):
            parse_expr(text, ("z",))
        assert time.perf_counter() - start < 2.0

    def test_powers_up_to_the_degree_cap_parse(self):
        v = ("z",)
        assert parse_expr("z^150", v).num.total_degree() == 150
        assert parse_expr("(z+1)^1000", v).num.total_degree() == 1000
        assert parse_expr("(z+1)^-1000", v).den.total_degree() == 1000

    @pytest.mark.parametrize("text", ["1" * 5000, "z^" + "1" * 5000])
    def test_oversized_integer_is_syntax_error(self, text):
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr(text, ("z",))
        assert info.value.position == text.index("1")

    def test_integers_up_to_the_digit_cap_parse(self):
        big = int("7" * 1000)
        assert parse_expr("7" * 1000, ("z",)) == RatFun.const(("z",), big)

    def test_exponent_must_be_an_integer(self):
        with pytest.raises(ExprSyntaxError, match="integer exponent"):
            parse_expr("z^z", ("z",))

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("z )", ("z",))

    def test_unknown_symbol(self):
        with pytest.raises(UnknownSymbol):
            parse_expr("z + w", ("z",))


class TestPrinter:
    def test_deglex_order_and_spacing(self):
        v = ("z", "zeta1")
        u = parse_expr("zeta1 + z^2 - 3", v)
        assert format_ratfun(u) == "z^2 + zeta1 - 3"

    def test_fraction_form(self):
        v = ("x0", "x1", "x2")
        u = parse_expr("(x2 + x0*x1)/(x0*x2 - 3*x1^2)", v)
        assert format_ratfun(u) == "(x0*x1 + x2)/(x0*x2 - 3*x1^2)"

    def test_monomial_denominator(self):
        v = ("z", "zeta1")
        assert format_ratfun(parse_expr("1/z^2", v)) == "1/z^2"
        assert format_ratfun(parse_expr("1/(z*zeta1)", v)) == "1/(z*zeta1)"

    def test_rational_coefficients(self):
        v = ("z",)
        assert format_ratfun(parse_expr("z/2 - 1/3", v)) == "1/2*z - 1/3"

    def test_round_trip_random(self):
        rng = random.Random(2718)
        for _ in range(300):
            T = random_tower(rng, depth=rng.randint(1, 3), max_deg=2)
            u = random_ratfun(rng, T.vars, max_deg=3)
            assert parse_expr(format_ratfun(u), T) == u


class TestTowerFile:
    def test_basic(self):
        tower, subfields = parse_tower_file(LOG_TWR)
        assert tower.gen_names == ("zeta1",)
        assert "K" in subfields
        assert subfields["K"].generators[0] == parse_expr("zeta1/z", tower)

    def test_subfield_generator_list(self):
        tower, subfields = parse_tower_file(
            LOG_TWR + "subfield E = [z, (zeta1 + 1)/(z - 1), zeta1^2]\n")
        assert subfields["E"].generators == tuple(
            parse_expr(e, tower)
            for e in ("z", "(zeta1 + 1)/(z - 1)", "zeta1^2"))

    def test_comments_and_blanks(self):
        text = "# header\nbase z\n\ngen a ; D(a) = 1/z  # log\n"
        tower, _ = parse_tower_file(text)
        assert tower.gen_names == ("a",)

    def test_missing_base(self):
        with pytest.raises(TowerFileError):
            parse_tower_file("gen a ; D(a) = 1/z\n")

    def test_name_mismatch(self):
        with pytest.raises(TowerFileError):
            parse_tower_file("base z\ngen a ; D(b) = 1/z\n")

    def test_forward_reference_detected(self):
        text = "base z\ngen a ; D(a) = b\ngen b ; D(b) = 1/z\n"
        with pytest.raises(ForwardReference):
            parse_tower_file(text)

    def test_unknown_symbol_in_derivative(self):
        with pytest.raises(UnknownSymbol):
            parse_tower_file("base z\ngen a ; D(a) = q\n")

    def test_deeply_nested_derivative(self):
        deep = "(" * 300 + "1/z" + ")" * 300
        with pytest.raises(TowerFileError):
            parse_tower_file(f"base z\ngen a ; D(a) = {deep}\n")


class TestCli:
    def test_validate(self, log_file):
        code, out = run(["validate", "--tower", log_file])
        assert code == 0
        assert "flat: true" in out and "status=ok" in out

    def test_output_shape(self, log_file):
        _, out = run(["derive", "--tower", log_file, "zeta1"])
        human, machine = out.split("---\n")
        assert human.strip() == "D^1(zeta1) = 1/z"
        assert "result=1/z" in machine

    def test_determinism(self, log_file):
        argv = ["structure", "--tower", log_file, "--subfield", "K",
                "--deg", "3", "--order", "2"]
        assert run(argv) == run(argv)

    def test_const_exit_codes(self, log_file):
        assert run(["const", "--tower", log_file, "5"])[0] == 0
        assert run(["const", "--tower", log_file, "zeta1"])[0] == 1

    def test_syntax_error_is_input_error(self, log_file):
        code, out = run(["derive", "--tower", log_file, "(z"])
        assert code == 3 and "error=ExprSyntaxError" in out

    def test_oversized_power_is_input_error(self, log_file):
        code, out = run(["derive", "--tower", log_file, "(z+1)^3000"])
        assert code == 3 and "error=ExprSyntaxError" in out

    def test_exponent_past_the_field_width_is_input_error(self, log_file,
                                                         capsys):
        # 2**32 does not fit a packed exponent field: a report, exit 3
        code, out = run(["derive", "--tower", log_file, f"z^{2 ** 32}"])
        assert code == 3 and "error=ExprSyntaxError" in out
        assert "Traceback" not in capsys.readouterr().err

    def test_oversized_integer_is_input_error(self, log_file):
        code, out = run(["derive", "--tower", log_file, "1" * 5000])
        assert code == 3 and "error=ExprSyntaxError" in out

    def test_deep_nesting_is_input_error(self, log_file, tmp_path):
        deep = "(" * 300 + "z" + ")" * 300
        code, out = run(["derive", "--tower", log_file, deep])
        assert code == 3 and "error=ExprSyntaxError" in out
        p = tmp_path / "deep.twr"
        p.write_text(f"base z\ngen a ; D(a) = 1/{deep}\n")
        code, out = run(["validate", "--tower", str(p)])
        assert code == 3 and "error=TowerFileError" in out

    def test_missing_file(self):
        code, _ = run(["validate", "--tower", "/nonexistent/x.twr"])
        assert code == 3

    def test_recover_identity(self, log_file):
        code, out = run(["recover", "--tower", log_file, "--from", "zeta1/z",
                         "--target", "z", "--order", "2", "--deg", "2"])
        assert code == 0
        assert out.splitlines()[0] == "(x0*x1 + x2)/(x0*x2 - 3*x1^2)"

    def test_recover_miss_exit_one(self, log_file):
        code, out = run(["recover", "--tower", log_file, "--from", "z",
                         "--target", "zeta1", "--order", "1", "--deg", "2"])
        assert code == 1 and "status=no-solution" in out

    def test_normal_tower(self, loglog_file):
        code, out = run(["normal-tower", "--tower", loglog_file])
        assert code == 0
        assert "level 3: zeta2" in out

    def test_ostrowski_independent_exit(self, log_file):
        code, out = run(["ostrowski", "--tower", log_file, "--w", "zeta1"])
        assert code == 1 and "status=independent" in out

    def test_member_found(self, log_file):
        code, out = run(["member", "--tower", log_file, "--subfield", "K",
                         "zeta1", "--deg", "3", "--order", "2"])
        assert code == 0 and "status=found" in out

    def test_aut_probe(self, log_file):
        code, out = run(["aut", "--tower", log_file, "--alpha", "1",
                         "--probe", "zeta1"])
        assert code == 1 and "fixed=false" in out

    def test_aut_bad_alpha_is_input_error(self, log_file):
        code, out = run(["aut", "--tower", log_file, "--alpha", "1/0"])
        assert code == 3 and "error=DivisionByZero" in out

    def test_aut_empty_alpha_is_input_error(self, log_file):
        code, out = run(["aut", "--tower", log_file, "--alpha", ""])
        assert code == 3 and "error=ValueError" in out

    def test_aut_alpha_digits_are_capped(self, tmp_path, monkeypatch):
        flat = tmp_path / "flat.twr"
        flat.write_text("base z\ngen a ; D(a) = 1/z\n"
                        "gen b ; D(b) = 1/(z + 1)\n")
        aut = ["aut", "--tower", str(flat), "--alpha"]
        assert run(aut + ["1,-1/2"]) == (0, "sigma(a) = a + 1\n"
                                         "sigma(b) = b - 1/2\n---\n"
                                         "status=ok\nalpha=1,-1/2\n")
        assert "alpha=1/2,100000\n" in run(aut + ["0.5,1e5"])[1]
        # 10^999 has 1000 digits, the parser's cap
        assert "alpha=1" + "0" * 999 + ",0\n" in run(aut + ["1e999,0"])[1]
        # Fraction would expand the exponent first, so none is built
        monkeypatch.setattr(cli, "Fraction", None)
        for alpha in ["1e1000,0", "0,1E+1_000", "1e-1000,0", "9" * 1001,
                      "1e1000000000,0", "1e" + "9" * 5000]:
            code, out = run(aut + [alpha])
            assert code == 3 and "error=ValueError" in out
            assert "denotes more than 1000 digits" in out

    def test_max_cells_applies_to_one_run(self, log_file):
        capped = ["recover", "--tower", log_file, "--from", "zeta1/z",
                  "--target", "z", "--deg", "2", "--order", "2",
                  "--max-cells", "10"]
        assert run(capped)[0] == 1
        output, code = corpus.run_case(corpus.load_case("log-recover"))
        assert code == 0
        assert "witness=(x0*x1 + x2)/(x0*x2 - 3*x1^2)" in output

    def test_derive_order_is_capped(self, log_file, capsys):
        for order in (cli.MAX_DERIVE_ORDER + 1, 10 ** 9):
            assert run(["derive", "--tower", log_file, "zeta1",
                        "--order", str(order)]) == (3, "")
        assert "Traceback" not in capsys.readouterr().err
        code, out = run(["derive", "--tower", log_file, "z",
                         "--order", str(cli.MAX_DERIVE_ORDER)])
        assert code == 0 and "result=0" in out

    # member, recover, basis and structure, each with a question that the
    # log tower answers at low degree and order
    SEARCHES = [["member", "--subfield", "K", "z"],
                ["recover", "--from", "zeta1/z", "--target", "z"],
                ["basis", "--subfield", "K"],
                ["structure", "--subfield", "K"]]

    @pytest.mark.parametrize("argv", SEARCHES, ids=lambda v: v[0])
    def test_search_degree_and_order_are_capped(self, log_file, monkeypatch,
                                                capsys, argv):
        argv = [argv[0], "--tower", log_file, *argv[1:]]
        caps = {"--deg": cli.MAX_SEARCH_DEGREE,
                "--order": cli.MAX_SEARCH_ORDER}
        both = [arg for flag, cap in caps.items() for arg in (flag, str(cap))]
        accepted = run(argv + both)
        assert accepted[0] in (0, 2)
        for flag, cap in caps.items():
            assert run(argv + [flag, str(cap)])[0] in (0, 2)
        monkeypatch.setattr(Tower, "differentiate", None)   # a call raises
        monkeypatch.setattr(ansatz.MembershipSearch, "find", None)
        for flag, cap in caps.items():
            for value in (cap + 1, 10 ** 9):
                assert run(argv + [flag, str(value)]) == (3, "")
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("f, g", [("0", "1"), ("1/z", "0")])
    def test_huge_ode_degree_stops_at_the_cell_cap(self, log_file, f, g):
        # the ladder ends at the cap, so --deg 10^9 answers as --deg 10^4;
        # unlike the membership searches' --deg, it is not an input error
        runs = [run(["solve-ode", "--tower", log_file, "--f", f, "--g", g,
                     "--deg", deg, "--max-cells", "1000"])
                for deg in ("10000", "1000000000")]
        assert runs[0] == runs[1]
        assert runs[0][0] == 1 and "status=no-solution" in runs[0][1]

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_max_cells_must_be_positive(self, log_file, cap):
        code, out = run(["solve-ode", "--tower", log_file, "--f", "1/z",
                         "--max-cells", cap])
        assert code == 3 and out == ""

    @pytest.mark.parametrize("gens, code, status, chosen", [
        ("z^2", 2, "partial", "zeta1"),
        ("z^2, z^2*zeta1", 0, "complete", ""),
    ])
    def test_basis(self, tmp_path, gens, code, status, chosen):
        p = tmp_path / "basis.twr"
        p.write_text(f"base z\ngen zeta1 ; D(zeta1) = 1/z\n"
                     f"subfield K = [{gens}]\n")
        got, out = run(["basis", "--tower", str(p), "--subfield", "K",
                        "--deg", "3", "--order", "2"])
        assert got == code
        assert out.split("---\n")[1] \
            == f"status={status}\nchosen={chosen}\n"

    def test_bad_subfield_name(self, log_file):
        code, _ = run(["member", "--tower", log_file, "--subfield", "nope",
                       "z", "--deg", "2", "--order", "1"])
        assert code == 3

    def test_invalid_constant_tower(self, tmp_path):
        p = tmp_path / "bad.twr"
        p.write_text("base z\ngen a ; D(a) = 1/z\ngen b ; D(b) = 2/z\n")
        code, out = run(["const", "--tower", str(p), "2*a-b"])
        assert code == 3 and "error=InvalidTowerConstant" in out


# exact reports of branches the tests above do not reach: (tower, argv
# without --tower, exit code, stdout)
REPORTS = [
    ("log", ["ostrowski", "--w", "zeta1", "--w", "2*zeta1 + z"], 0,
     "alpha = (1, -1/2)\na = -1/2*z\n---\n"
     "status=relation\nalpha=1,-1/2\na=-1/2*z\n"),
    ("log", ["member", "--subfield", "K", "zeta1", "--deg", "1",
             "--order", "1"], 1,
     "no solution within bounds\n---\nstatus=no-solution\n"),
    ("base", ["solve-ode", "--f", "1/z"], 1,
     "no solution within bounds (certified: no solution exists)\n---\n"
     "status=no-solution\ncertified=true\n"),
    ("log", ["solve-ode", "--f", "0", "--g", "1"], 1,
     "no solution within bounds\n---\n"
     "status=no-solution\ncertified=false\n"),
    ("log", ["aut", "--alpha", "1", "--apply", "zeta1^2"], 0,
     "sigma(zeta1) = zeta1 + 1\nsigma(zeta1^2) = zeta1^2 + 2*zeta1 + 1\n"
     "---\nstatus=ok\nalpha=1\nimage=zeta1^2 + 2*zeta1 + 1\n"),
    ("log", ["structure", "--subfield", "K", "--deg", "1", "--order", "1"], 2,
     "status: partial\nK generator 0: unresolved\n---\n"
     "status=partial\ngenerators=\nkgen0=unresolved\n"),
    ("log", ["decompose", "zeta1^2"], 1,
     "error: NotAntiderivative: D(g) is not in Q(z): RatFun('2*zeta1/z')\n"
     "---\nstatus=error\nerror=NotAntiderivative\n"),
    ("loglog", ["normal-tower", "--max-cells", "1"], 2,
     "error: BoundsExceeded: linear system of 3x4 exceeds cap 1\n---\n"
     "status=error\nerror=BoundsExceeded\n"),
    # input errors: exit 3
    ("q2", ["ostrowski", "--subfield", "Q2", "--w", "zeta1"], 3,
     "error: Unsupported: K does not admit the exact coordinate treatment\n"
     "---\nstatus=error\nerror=Unsupported\n"),
    ("log", ["derive", "zeta1", "--order", "-1"], 3,
     "error: ValueError: derivative order must be nonnegative\n---\n"
     "status=error\nerror=ValueError\n"),
    ("dup", ["validate"], 3,
     "error: TowerFileError: line 4: duplicate subfield 'K'\n---\n"
     "status=error\nerror=TowerFileError\n"),
    ("empty", ["validate"], 3,
     "error: TowerFileError: line 4: empty subfield 'E'\n---\n"
     "status=error\nerror=TowerFileError\n"),
]


@pytest.mark.parametrize("tower, argv, code, stdout", REPORTS,
                         ids=lambda v: " ".join(v) if isinstance(v, list)
                         else None)
def test_report(towers, tower, argv, code, stdout):
    assert run([argv[0], "--tower", towers[tower], *argv[1:]]) \
        == (code, stdout)


@pytest.mark.parametrize("err, code", [
    (NotAntiderivative("x"), 1),
    (BoundsExceeded("x"), 2),
    (TowerFileError("x"), 3),
    (ValueError("x"), 3),
    (NotLinearField("x"), 3),
    (DiffTowerError("x"), 3),
], ids=lambda v: type(v).__name__ if isinstance(v, Exception) else None)
def test_error_exit_codes(log_file, monkeypatch, err, code):
    # any library error ends in a report, never a traceback; _load runs in
    # the same try as the handler, which the parser bound at import
    def boom(*_):
        raise err
    monkeypatch.setattr(cli, "_load", boom)
    got, out = run(["validate", "--tower", log_file])
    assert got == code
    assert out == (f"error: {type(err).__name__}: x\n---\n"
                   f"status=error\nerror={type(err).__name__}\n")


def test_one_report_path():
    # print only in _emit, and _emit only from main: a handler returns its
    # report and main prints it
    tree = ast.parse(inspect.getsource(cli))
    callers = {"print": set(), "_emit": set()}
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Name) \
                        and node.func.id in callers:
                    callers[node.func.id].add(fn.name)
    assert callers == {"print": {"_emit"}, "_emit": {"main"}}


def test_main_builds_no_parser(log_file, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    for argv in (["validate", "--tower", log_file],
                 ["derive", "--tower", log_file, "zeta1", "--bogus"]):
        run(argv)
    assert built == []


def test_repeated_option_does_not_accumulate(tmp_path):
    p = tmp_path / "two.twr"
    p.write_text("base z\ngen zeta1 ; D(zeta1) = 1/z\n"
                 "gen zeta2 ; D(zeta2) = 1/(z + 1)\n")
    argv = ["ostrowski", "--tower", str(p), "--w", "zeta1", "--w", "zeta2"]
    first = run(argv)
    assert first == run(argv)
    assert first[0] == 1 and "status=independent" in first[1]


def test_failed_parse_leaves_no_state(log_file):
    argv = ["recover", "--tower", log_file, "--from", "zeta1/z",
            "--target", "z", "--deg", "2", "--order", "2"]
    first = run(argv)
    assert run(argv + ["--max-cells", "0"]) == (3, "")
    assert run(argv) == first


# the options each subcommand takes; an option a subcommand would accept and
# ignore does not belong here
SUBCOMMAND_OPTIONS = {
    "validate": {"--tower"},
    "derive": {"--tower", "--order"},
    "const": {"--tower"},
    "decompose": {"--tower"},
    "ostrowski": {"--tower", "--subfield", "--w"},
    "normal-tower": {"--tower", "--max-cells"},
    "basis": {"--tower", "--subfield", "--deg", "--order", "--max-cells"},
    "member": {"--tower", "--subfield", "--deg", "--order", "--max-cells"},
    "solve-ode": {"--tower", "--deg", "--max-cells", "--f", "--g"},
    "recover": {"--tower", "--deg", "--order", "--max-cells", "--from",
                "--target"},
    "aut": {"--tower", "--alpha", "--apply", "--probe"},
    "structure": {"--tower", "--subfield", "--deg", "--order", "--max-cells"},
}


def test_each_subcommand_takes_only_the_options_it_reads():
    sub, = (a for a in cli._PARSER._actions
            if a.choices and a.dest == "command")
    taken = {name: {s for a in p._actions for s in a.option_strings}
             - {"-h", "--help"} for name, p in sub.choices.items()}
    assert taken == SUBCOMMAND_OPTIONS


@pytest.mark.parametrize("argv, option", [
    (["validate"], "--max-cells"),
    (["derive", "zeta1"], "--max-cells"),
    (["const", "zeta1"], "--max-cells"),
    (["decompose", "zeta1"], "--max-cells"),
    (["aut"], "--max-cells"),
    (["normal-tower"], "--deg"),
    (["normal-tower"], "--order"),
    (["solve-ode", "--f", "1/z"], "--order"),
    (["ostrowski", "--w", "zeta1"], "--deg"),
    (["ostrowski", "--w", "zeta1"], "--order"),
    (["ostrowski", "--w", "zeta1"], "--max-cells"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else v)
def test_removed_option_is_input_error(log_file, argv, option):
    argv = [argv[0], "--tower", log_file, *argv[1:]]
    assert run(argv)[0] != 3
    assert run(argv + [option, "2"]) == (3, "")
