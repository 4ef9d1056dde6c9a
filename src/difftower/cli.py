"""Command-line front end.

Every subcommand prints a short human-readable report, a `---` separator and
a machine-readable key=value block, deterministically.  Exit codes: 0 found
or true, 1 false or negative decision, 2 unknown or partial, 3 input error.

There is one report path: `main` loads the tower file, calls the
subcommand's handler with `(args, tower, subfields)`, and prints the
`(lines, kv, code)` it returns.  A library error becomes the same kind of
report in `main`: exit 1 for NotAntiderivative, 2 for BoundsExceeded and 3
for any other error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import ansatz, autgroup, structure
from .ansatz import Bounds, Found
from .errors import (BoundsExceeded, DiffTowerError, DivisionByZero,
                     NotAntiderivative, TowerFileError)
from .parser import (_MAX_DIGITS, format_fraction, format_ratfun,
                     parse_expr, parse_tower_file)
from .ratfun import RatFun
from .tower import SubfieldSpec, Tower, base_subfield

# derive --order takes one derivative per step, so it is capped like the
# parser's power degree: a larger order is an input error, not a run that
# never ends
MAX_DERIVE_ORDER = 10_000
# so are --deg and --order of member, recover, basis and structure, whose
# ladders climb every rung up to both; solve-ode stops at the cell cap
MAX_SEARCH_DEGREE = 20
MAX_SEARCH_ORDER = 20

Report = Tuple[List[str], List[Tuple[str, str]], int]  # lines, kv, exit code


def _emit(lines: List[str], kv: List[Tuple[str, str]]):
    for line in lines:
        print(line)
    print("---")
    for key, value in kv:
        print(f"{key}={value}")


def _load(args) -> Tuple[Tower, Dict[str, SubfieldSpec]]:
    with open(args.tower, "r", encoding="utf-8") as fh:
        return parse_tower_file(fh.read())


def _subfield(args, tower, subfields) -> SubfieldSpec:
    name = getattr(args, "subfield", None)
    if name is None:
        return base_subfield(tower)
    if name not in subfields:
        raise TowerFileError(f"tower file defines no subfield {name!r}")
    return subfields[name]


def _bounds(args) -> Bounds:
    """Bounds from the --deg, --order and --max-cells the subcommand takes;
    a bound not given keeps its default."""
    caps = {}
    if args.max_cells is not None:
        caps["max_cells"] = args.max_cells
    if getattr(args, "deg", None) is not None:
        # explicit degree cap: search exactly up to it, no escalation
        caps.update(max_num_degree=args.deg, max_den_degree=args.deg,
                    escalation=())
    if getattr(args, "order", None) is not None:
        caps["max_derivative_order"] = args.order
    return Bounds(**caps)


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


def _fmt_alpha(alpha, sep: str = ",") -> str:
    return sep.join(format_fraction(a) for a in alpha)


def _fmt_witness_like(w) -> str:
    return format_ratfun(w.expr if isinstance(w, ansatz.Witness) else w)


def _alpha_report(status: str, alpha, a: RatFun) -> Report:
    """The alpha / remainder block of decompose and ostrowski."""
    return ([f"alpha = ({_fmt_alpha(alpha, ', ')})", f"a = {format_ratfun(a)}"],
            [("status", status), ("alpha", _fmt_alpha(alpha)),
             ("a", format_ratfun(a))], 0)


def _membership_report(outcome, human) -> Report:
    """The found / no-solution block of member and recover."""
    if not isinstance(outcome, Found):
        return ["no solution within bounds"], [("status", "no-solution")], 1
    w = outcome.value
    return human(w), [("status", "found"), ("witness", format_ratfun(w.expr)),
                      ("args", ";".join(format_ratfun(a) for a in w.args))], 0


# -- subcommands ----------------------------------------------------------------

def _cmd_validate(args, tower, subfields) -> Report:
    lines = [f"tower: {', '.join(tower.vars)}"] + [
        f"D({name}) = {format_ratfun(tower.deriv_of(name))}"
        for name in tower.gen_names]
    flat = _bool(tower.is_flat())
    lines.append(f"flat: {flat}")
    kv = [("status", "ok"), ("generators", ",".join(tower.gen_names)),
          ("flat", flat)]
    if subfields:
        kv.append(("subfields", ",".join(subfields)))
    return lines, kv, 0


def _cmd_derive(args, tower, subfields) -> Report:
    u = parse_expr(args.expr, tower)
    result = format_ratfun(tower.nth_derivative(u, args.order))
    return ([f"D^{args.order}({args.expr}) = {result}"],
            [("status", "ok"), ("result", result)], 0)


def _cmd_const(args, tower, subfields) -> Report:
    answer = tower.is_constant(parse_expr(args.expr, tower))
    return ([f"constant: {_bool(answer)}"], [("status", _bool(answer))],
            0 if answer else 1)


def _cmd_decompose(args, tower, subfields) -> Report:
    g = parse_expr(args.expr, tower)
    return _alpha_report("found", *structure.antiderivative_decompose(g, tower))


def _cmd_ostrowski(args, tower, subfields) -> Report:
    K = _subfield(args, tower, subfields)
    ws = [parse_expr(t, tower) for t in args.w]
    outcome = structure.ostrowski_relation(ws, K, tower)
    if isinstance(outcome, structure.Independent):
        return ["independent"], [("status", "independent")], 1
    return _alpha_report("relation", outcome.alpha, outcome.remainder)


def _cmd_normal_tower(args, tower, subfields) -> Report:
    result = structure.normal_tower(tower, _bounds(args))
    lines = ["level 0: Q"]
    kv = [("status", "partial" if result.partial else "complete"),
          ("levels", str(len(result.levels) - 1))]
    for j, level in enumerate(result.levels[1:], start=1):
        rendered = [format_ratfun(e) for e in level]
        lines.append(f"level {j}: {', '.join(rendered)}")
        kv.append((f"level{j}", ";".join(rendered)))
    return lines, kv, 2 if result.partial else 0


def _cmd_basis(args, tower, subfields) -> Report:
    K = _subfield(args, tower, subfields)
    result = structure.compositum_basis(K, tower, _bounds(args))
    chosen = ", ".join(result.chosen) if result.chosen else "(none)"
    return ([f"basis: {chosen}"],
            [("status", "partial" if result.partial else "complete"),
             ("chosen", ",".join(result.chosen))],
            2 if result.partial else 0)


def _cmd_member(args, tower, subfields) -> Report:
    K = _subfield(args, tower, subfields)
    u = parse_expr(args.expr, tower)
    outcome = ansatz.subfield_membership(u, K, tower, _bounds(args))
    return _membership_report(outcome, lambda w: [
        f"witness: {format_ratfun(w.expr)}",
        "args: " + ", ".join(f"x{i} = {format_ratfun(a)}"
                             for i, a in enumerate(w.args))])


def _cmd_solve_ode(args, tower, subfields) -> Report:
    f = parse_expr(args.f, tower)
    g = parse_expr(args.g, tower) if args.g is not None \
        else RatFun.const(tower.vars, 0)
    outcome = ansatz.solve_first_order(f, g, tower, _bounds(args))
    if isinstance(outcome, Found):
        w = format_ratfun(outcome.value)
        return [f"w = {w}"], [("status", "found"), ("w", w)], 0
    note = " (certified: no solution exists)" if outcome.certified else ""
    return ([f"no solution within bounds{note}"],
            [("status", "no-solution"),
             ("certified", _bool(outcome.certified))], 1)


def _cmd_recover(args, tower, subfields) -> Report:
    source = parse_expr(getattr(args, "from"), tower)
    target = parse_expr(args.target, tower)
    K = SubfieldSpec(generators=(source,))
    outcome = ansatz.subfield_membership(target, K, tower, _bounds(args))
    return _membership_report(outcome, lambda w: [format_ratfun(w.expr)])


def _parse_alpha(text: str) -> List[Fraction]:
    """The --alpha parts as Fractions.  Fraction expands an exponent before
    anything could refuse it, so a part whose mantissa digits plus |exponent|
    exceed the parser's digit cap is refused first."""
    parts = text.split(",")
    for part in parts:
        mantissa, _, exp = part.lower().partition("e")
        exp = exp.strip().lstrip("+-").replace("_", "")
        digits = sum(c.isdigit() for c in mantissa)
        if exp.isdecimal():
            # a longer exponent is over the cap before int() reads it
            digits += (int(exp) if len(exp) <= len(str(_MAX_DIGITS))
                       else _MAX_DIGITS + 1)
        if digits > _MAX_DIGITS:
            raise ValueError(f"--alpha part of {len(part)} characters "
                             f"denotes more than {_MAX_DIGITS} digits")
    try:
        return [Fraction(part) for part in parts]
    except ZeroDivisionError:
        raise DivisionByZero(f"--alpha {text!r} has a zero denominator") from None


def _cmd_aut(args, tower, subfields) -> Report:
    alpha = _parse_alpha(args.alpha) if args.alpha is not None \
        else [Fraction(0)] * len(tower.gen_names)
    sigma = autgroup.make_translation_aut(tower, alpha)
    lines = [f"sigma({name}) = {format_ratfun(sigma.image_of(name))}"
             for name in tower.gen_names]
    kv = [("status", "ok"), ("alpha", _fmt_alpha(alpha))]
    code = 0
    if args.apply is not None:
        u = parse_expr(args.apply, tower)
        image = format_ratfun(autgroup.apply(sigma, u))
        lines.append(f"sigma({args.apply}) = {image}")
        kv.append(("image", image))
    if args.probe is not None:
        u = parse_expr(args.probe, tower)
        fixed = autgroup.fixed_field_probe([sigma], u)
        lines.append(f"fixed: {_bool(fixed)}")
        kv.append(("fixed", _bool(fixed)))
        code = 0 if fixed else 1
    return lines, kv, code


def _cmd_structure(args, tower, subfields) -> Report:
    K = _subfield(args, tower, subfields)
    report = structure.subfield_structure(K, tower, _bounds(args))
    lines = [f"status: {report.status}"]
    gen_strs = [format_ratfun(gen.expr) for gen in report.generators]
    for i, (expr, gen) in enumerate(zip(gen_strs, report.generators)):
        lines += [f"eta{i} = {expr}", "  derivative over previous: "
                  + _fmt_witness_like(gen.derivative_witness),
                  f"  over K: {_fmt_witness_like(gen.membership_witness)}"]
    kv = [("status", report.status), ("generators", ";".join(gen_strs))]
    for i, w in enumerate(report.input_witnesses):
        rendered = "unresolved" if w is None else _fmt_witness_like(w)
        lines.append(f"K generator {i}: {rendered}")
        kv.append((f"kgen{i}", rendered))
    return lines, kv, 0 if report.status == "resolved" else 2


# -- wiring ----------------------------------------------------------------------

def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _at_most(cap: int):
    """An argparse type: an int no larger than cap."""
    def parse(text: str) -> int:
        value = int(text)
        if value > cap:
            raise argparse.ArgumentTypeError(
                f"must be at most {cap}, got {value}")
        return value
    return parse


SEARCH_BOUNDS = {"--deg": _at_most(MAX_SEARCH_DEGREE),
                 "--order": _at_most(MAX_SEARCH_ORDER),
                 "--max-cells": _positive_int}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="difftower")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, subfield=False, bounds=None):
        p.add_argument("--tower", required=True, help="tower definition file")
        if subfield:
            p.add_argument("--subfield", help="named subfield from the file")
        # only the search bounds the subcommand reads: {flag: type}
        for flag, kind in (bounds or {}).items():
            p.add_argument(flag, type=kind)

    p = sub.add_parser("validate")
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("derive")
    common(p)
    p.add_argument("expr")
    p.add_argument("--order", type=_at_most(MAX_DERIVE_ORDER), default=1)
    p.set_defaults(func=_cmd_derive)

    p = sub.add_parser("const")
    common(p)
    p.add_argument("expr")
    p.set_defaults(func=_cmd_const)

    p = sub.add_parser("decompose")
    common(p)
    p.add_argument("expr")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("ostrowski")
    common(p, subfield=True)
    p.add_argument("--w", action="append", required=True,
                   help="antiderivative expression; repeatable")
    p.set_defaults(func=_cmd_ostrowski)

    p = sub.add_parser("normal-tower")
    common(p, bounds={"--max-cells": _positive_int})
    p.set_defaults(func=_cmd_normal_tower)

    p = sub.add_parser("basis")
    common(p, subfield=True, bounds=SEARCH_BOUNDS)
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("member")
    common(p, subfield=True, bounds=SEARCH_BOUNDS)
    p.add_argument("expr")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("solve-ode")
    common(p, bounds={"--deg": int, "--max-cells": _positive_int})
    p.add_argument("--f", required=True)
    p.add_argument("--g")
    p.set_defaults(func=_cmd_solve_ode)

    p = sub.add_parser("recover")
    common(p, bounds=SEARCH_BOUNDS)
    p.add_argument("--from", required=True, dest="from")
    p.add_argument("--target", required=True)
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("aut")
    common(p)
    p.add_argument("--alpha", help="comma-separated rational translations")
    p.add_argument("--apply", help="expression to map")
    p.add_argument("--probe", help="expression to test for being fixed")
    p.set_defaults(func=_cmd_aut)

    p = sub.add_parser("structure")
    common(p, subfield=True, bounds=SEARCH_BOUNDS)
    p.set_defaults(func=_cmd_structure)
    return top


_PARSER = _build_parser()


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as e:
        return 3 if e.code else 0
    try:
        lines, kv, code = args.func(args, *_load(args))
    except (DiffTowerError, ValueError) as e:
        name = type(e).__name__
        lines, kv = [f"error: {name}: {e}"], [("status", "error"),
                                               ("error", name)]
        code = 1 if isinstance(e, NotAntiderivative) \
            else 2 if isinstance(e, BoundsExceeded) else 3
    except OSError as e:
        lines, kv, code = [f"error: {e}"], [("status", "error"),
                                            ("error", "OSError")], 3
    _emit(lines, kv)
    return code


def entrypoint():
    sys.exit(main(sys.argv[1:]))
