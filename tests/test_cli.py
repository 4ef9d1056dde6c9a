"""Parser, printer and CLI subcommands."""

import io
import os
import random
import time
from contextlib import redirect_stdout

import pytest

from difftower import corpus
from difftower.cli import main
from difftower.errors import (ExprSyntaxError, ForwardReference,
                              TowerFileError, UnknownSymbol)
from difftower.parser import (format_mpoly, format_ratfun, parse_expr,
                              parse_tower_file)
from difftower.randexpr import random_ratfun, random_tower
from difftower.ratfun import RatFun
from difftower.tower import tower_from_pairs

LOG_TWR = """base z
gen zeta1 ; D(zeta1) = 1/z
subfield K = [zeta1/z]
"""

LOGLOG_TWR = """base z
gen zeta1 ; D(zeta1) = 1/z
gen zeta2 ; D(zeta2) = 1/(zeta1*z)
"""


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
        code, out = run(["normal-tower", "--tower", loglog_file,
                         "--deg", "2", "--order", "2"])
        assert code == 0
        assert "level 3: zeta2" in out

    def test_ostrowski_independent_exit(self, log_file):
        code, out = run(["ostrowski", "--tower", log_file, "--w", "zeta1",
                         "--deg", "2", "--order", "1"])
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

    def test_max_cells_applies_to_one_run(self, log_file, monkeypatch):
        monkeypatch.delenv("DIFFIELD_MAX_CELLS", raising=False)
        before = dict(os.environ)
        assert run(["derive", "--tower", log_file, "zeta1",
                    "--max-cells", "10"])[0] == 0
        output, code = corpus.run_case(corpus.load_case("log-recover"))
        assert code == 0
        assert "witness=(x0*x1 + x2)/(x0*x2 - 3*x1^2)" in output
        assert dict(os.environ) == before
        monkeypatch.setenv("DIFFIELD_MAX_CELLS", "400000")
        run(["derive", "--tower", log_file, "zeta1", "--max-cells", "10"])
        assert os.environ["DIFFIELD_MAX_CELLS"] == "400000"

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_max_cells_must_be_positive(self, log_file, cap):
        code, out = run(["solve-ode", "--tower", log_file, "--f", "1/z",
                         "--max-cells", cap])
        assert code == 3 and out == ""

    @pytest.mark.parametrize("cap", ["-5", "0", "abc"])
    def test_max_cells_env_must_be_positive(self, cap, monkeypatch):
        # the cap from the environment is input too: exit 3, not a miss
        monkeypatch.setenv("DIFFIELD_MAX_CELLS", cap)
        output, code = corpus.run_case(corpus.load_case("log-recover"))
        assert code == 3 and "error=ValueError" in output
        assert "DIFFIELD_MAX_CELLS" in output

    def test_bad_subfield_name(self, log_file):
        code, _ = run(["member", "--tower", log_file, "--subfield", "nope",
                       "z", "--deg", "2", "--order", "1"])
        assert code == 3

    def test_invalid_constant_tower(self, tmp_path):
        p = tmp_path / "bad.twr"
        p.write_text("base z\ngen a ; D(a) = 1/z\ngen b ; D(b) = 2/z\n")
        code, out = run(["const", "--tower", str(p), "2*a-b"])
        assert code == 3 and "error=InvalidTowerConstant" in out
