"""Command-line front end.

Every subcommand prints a short human-readable report, a `---` separator and
a machine-readable key=value block, deterministically.  Exit codes: 0 found
or true, 1 false or negative decision, 2 unknown or partial, 3 input error.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from . import ansatz, autgroup, structure
from .ansatz import Bounds, Found
from .errors import (AlreadyInBase, BoundsExceeded, DivisionByZero,
                     DuplicateName, ExprSyntaxError,
                     ForwardReference, InvalidTowerConstant,
                     MalformedAntiderivative, NotAntiderivative,
                     NotDifferential, NotFlat, NotTriangular, TowerFileError,
                     UnknownSymbol, Unsupported, VariableMismatch,
                     ZeroDenominator)
from .parser import (format_fraction, format_ratfun, parse_expr,
                     parse_tower_file)
from .ratfun import RatFun
from .tower import SubfieldSpec, Tower, base_subfield

_INPUT_ERRORS = (TowerFileError, ExprSyntaxError, UnknownSymbol,
                 DuplicateName, ForwardReference, InvalidTowerConstant,
                 VariableMismatch, ZeroDenominator, DivisionByZero, NotFlat,
                 MalformedAntiderivative, Unsupported, ValueError)
_DECISION_ERRORS = (NotAntiderivative, NotDifferential, NotTriangular,
                    AlreadyInBase)
MAX_CELLS_ENV = "DIFFIELD_MAX_CELLS"
ALL_BOUNDS = ("--deg", "--order", "--max-cells")


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
    """Bounds from the --deg and --order the subcommand takes; the cell cap
    is --max-cells, else the positive integer in DIFFIELD_MAX_CELLS (read
    here only), else default."""
    caps = {}
    value = os.environ.get(MAX_CELLS_ENV)
    if args.max_cells is not None:
        caps["max_cells"] = args.max_cells
    elif value:
        try:
            caps["max_cells"] = _positive_int(value)
        except (ValueError, argparse.ArgumentTypeError):
            raise ValueError(f"{MAX_CELLS_ENV} must be a positive integer, "
                             f"got {value!r}") from None
    if getattr(args, "deg", None) is not None:
        # explicit degree cap: search exactly up to it, no escalation
        caps.update(max_num_degree=args.deg, max_den_degree=args.deg,
                    escalation=())
    if getattr(args, "order", None) is not None:
        caps["max_derivative_order"] = args.order
    return Bounds(**caps)


def _fmt_alpha(alpha) -> str:
    return ",".join(format_fraction(a) for a in alpha)


def _fmt_witness_like(w) -> str:
    if isinstance(w, ansatz.Witness):
        return format_ratfun(w.expr)
    return format_ratfun(w)


# -- subcommands ----------------------------------------------------------------

def _cmd_validate(args) -> int:
    tower, subfields = _load(args)
    lines = [f"tower: {', '.join(tower.vars)}"]
    for name in tower.gen_names:
        lines.append(f"D({name}) = {format_ratfun(tower.deriv_of(name))}")
    flat = tower.is_flat()
    lines.append(f"flat: {'true' if flat else 'false'}")
    kv = [("status", "ok"),
          ("generators", ",".join(tower.gen_names)),
          ("flat", "true" if flat else "false")]
    if subfields:
        kv.append(("subfields", ",".join(subfields)))
    _emit(lines, kv)
    return 0


def _cmd_derive(args) -> int:
    tower, _ = _load(args)
    u = parse_expr(args.expr, tower)
    n = args.order if args.order is not None else 1
    result = tower.nth_derivative(u, n)
    _emit([f"D^{n}({args.expr}) = {format_ratfun(result)}"],
          [("status", "ok"), ("result", format_ratfun(result))])
    return 0


def _cmd_const(args) -> int:
    tower, _ = _load(args)
    u = parse_expr(args.expr, tower)
    answer = tower.is_constant(u)
    _emit([f"constant: {'true' if answer else 'false'}"],
          [("status", "true" if answer else "false")])
    return 0 if answer else 1


def _cmd_decompose(args) -> int:
    tower, _ = _load(args)
    g = parse_expr(args.expr, tower)
    alpha, a = structure.antiderivative_decompose(g, tower)
    _emit([f"alpha = ({', '.join(format_fraction(x) for x in alpha)})",
           f"a = {format_ratfun(a)}"],
          [("status", "found"), ("alpha", _fmt_alpha(alpha)),
           ("a", format_ratfun(a))])
    return 0


def _cmd_ostrowski(args) -> int:
    tower, subfields = _load(args)
    K = _subfield(args, tower, subfields)
    ws = [parse_expr(t, tower) for t in args.w]
    outcome = structure.ostrowski_relation(ws, K, tower)
    if isinstance(outcome, structure.Independent):
        _emit(["independent"], [("status", "independent")])
        return 1
    _emit([f"alpha = ({', '.join(format_fraction(x) for x in outcome.alpha)})",
           f"a = {format_ratfun(outcome.remainder)}"],
          [("status", "relation"), ("alpha", _fmt_alpha(outcome.alpha)),
           ("a", format_ratfun(outcome.remainder))])
    return 0


def _cmd_normal_tower(args) -> int:
    tower, _ = _load(args)
    result = structure.normal_tower(tower, _bounds(args))
    lines = ["level 0: Q"]
    kv = [("status", "partial" if result.partial else "complete"),
          ("levels", str(len(result.levels) - 1))]
    for j, level in enumerate(result.levels[1:], start=1):
        rendered = ", ".join(format_ratfun(e) for e in level)
        lines.append(f"level {j}: {rendered}")
        kv.append((f"level{j}", ";".join(format_ratfun(e) for e in level)))
    _emit(lines, kv)
    return 2 if result.partial else 0


def _cmd_basis(args) -> int:
    tower, subfields = _load(args)
    K = _subfield(args, tower, subfields)
    result = structure.compositum_basis(K, tower, _bounds(args))
    chosen = ", ".join(result.chosen) if result.chosen else "(none)"
    _emit([f"basis: {chosen}"],
          [("status", "partial" if result.partial else "complete"),
           ("chosen", ",".join(result.chosen))])
    return 2 if result.partial else 0


def _cmd_member(args) -> int:
    tower, subfields = _load(args)
    K = _subfield(args, tower, subfields)
    u = parse_expr(args.expr, tower)
    outcome = ansatz.subfield_membership(u, K, tower, _bounds(args))
    if isinstance(outcome, Found):
        w = outcome.value
        args_line = ", ".join(
            f"x{i} = {format_ratfun(a)}" for i, a in enumerate(w.args))
        _emit([f"witness: {format_ratfun(w.expr)}", f"args: {args_line}"],
              [("status", "found"), ("witness", format_ratfun(w.expr)),
               ("args", ";".join(format_ratfun(a) for a in w.args))])
        return 0
    _emit(["no solution within bounds"], [("status", "no-solution")])
    return 1


def _cmd_solve_ode(args) -> int:
    tower, _ = _load(args)
    f = parse_expr(args.f, tower)
    g = parse_expr(args.g, tower) if args.g is not None \
        else RatFun.const(tower.vars, 0)
    outcome = ansatz.solve_first_order(f, g, tower, _bounds(args))
    if isinstance(outcome, Found):
        _emit([f"w = {format_ratfun(outcome.value)}"],
              [("status", "found"), ("w", format_ratfun(outcome.value))])
        return 0
    certified = "true" if outcome.certified else "false"
    _emit(["no solution within bounds"
           + (" (certified: no solution exists)" if outcome.certified else "")],
          [("status", "no-solution"), ("certified", certified)])
    return 1


def _cmd_recover(args) -> int:
    tower, _ = _load(args)
    source = parse_expr(getattr(args, "from"), tower)
    target = parse_expr(args.target, tower)
    K = SubfieldSpec(generators=(source,))
    outcome = ansatz.subfield_membership(target, K, tower, _bounds(args))
    if isinstance(outcome, Found):
        w = outcome.value
        _emit([format_ratfun(w.expr)],
              [("status", "found"), ("witness", format_ratfun(w.expr)),
               ("args", ";".join(format_ratfun(a) for a in w.args))])
        return 0
    _emit(["no solution within bounds"], [("status", "no-solution")])
    return 1


def _parse_alpha(text: str) -> List[Fraction]:
    try:
        return [Fraction(part) for part in text.split(",")]
    except ZeroDivisionError:
        raise DivisionByZero(f"--alpha {text!r} has a zero denominator") from None


def _cmd_aut(args) -> int:
    tower, _ = _load(args)
    alpha = _parse_alpha(args.alpha) if args.alpha is not None \
        else [Fraction(0)] * len(tower.gen_names)
    sigma = autgroup.make_translation_aut(tower, alpha)
    lines = []
    kv = [("status", "ok"), ("alpha", _fmt_alpha(alpha))]
    for name in tower.gen_names:
        lines.append(f"sigma({name}) = {format_ratfun(sigma.image_of(name))}")
    code = 0
    if args.apply is not None:
        u = parse_expr(args.apply, tower)
        image = autgroup.apply(sigma, u)
        lines.append(f"sigma({args.apply}) = {format_ratfun(image)}")
        kv.append(("image", format_ratfun(image)))
    if args.probe is not None:
        u = parse_expr(args.probe, tower)
        fixed = autgroup.fixed_field_probe([sigma], u)
        lines.append(f"fixed: {'true' if fixed else 'false'}")
        kv.append(("fixed", "true" if fixed else "false"))
        code = 0 if fixed else 1
    _emit(lines, kv)
    return code


def _cmd_structure(args) -> int:
    tower, subfields = _load(args)
    K = _subfield(args, tower, subfields)
    report = structure.subfield_structure(K, tower, _bounds(args))
    lines = [f"status: {report.status}"]
    kv = [("status", report.status)]
    gen_strs = []
    for i, gen in enumerate(report.generators):
        expr = format_ratfun(gen.expr)
        gen_strs.append(expr)
        lines.append(f"eta{i} = {expr}")
        lines.append(f"  derivative over previous: "
                     f"{_fmt_witness_like(gen.derivative_witness)}")
        lines.append(f"  over K: {_fmt_witness_like(gen.membership_witness)}")
    kv.append(("generators", ";".join(gen_strs)))
    for i, w in enumerate(report.input_witnesses):
        if w is None:
            lines.append(f"K generator {i}: unresolved")
            kv.append((f"kgen{i}", "unresolved"))
        else:
            lines.append(f"K generator {i}: {_fmt_witness_like(w)}")
            kv.append((f"kgen{i}", _fmt_witness_like(w)))
    _emit(lines, kv)
    return 0 if report.status == "resolved" else 2


# -- wiring ----------------------------------------------------------------------

def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="difftower")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, subfield=False, bounds=()):
        p.add_argument("--tower", required=True, help="tower definition file")
        if subfield:
            p.add_argument("--subfield", help="named subfield from the file")
        for flag in bounds:   # only the search bounds the subcommand reads
            p.add_argument(flag, type=_positive_int
                           if flag == "--max-cells" else int)

    p = sub.add_parser("validate")
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("derive")
    common(p)
    p.add_argument("expr")
    p.add_argument("--order", type=int, default=1)
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
    common(p, bounds=("--max-cells",))
    p.set_defaults(func=_cmd_normal_tower)

    p = sub.add_parser("basis")
    common(p, subfield=True, bounds=ALL_BOUNDS)
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("member")
    common(p, subfield=True, bounds=ALL_BOUNDS)
    p.add_argument("expr")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("solve-ode")
    common(p, bounds=("--deg", "--max-cells"))
    p.add_argument("--f", required=True)
    p.add_argument("--g")
    p.set_defaults(func=_cmd_solve_ode)

    p = sub.add_parser("recover")
    common(p, bounds=ALL_BOUNDS)
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
    common(p, subfield=True, bounds=ALL_BOUNDS)
    p.set_defaults(func=_cmd_structure)
    return top


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 3 if e.code else 0
    try:
        return args.func(args)
    except _DECISION_ERRORS as e:
        _emit([f"error: {type(e).__name__}: {e}"],
              [("status", "error"), ("error", type(e).__name__)])
        return 1
    except BoundsExceeded as e:
        _emit([f"error: BoundsExceeded: {e}"],
              [("status", "error"), ("error", "BoundsExceeded")])
        return 2
    except _INPUT_ERRORS as e:
        _emit([f"error: {type(e).__name__}: {e}"],
              [("status", "error"), ("error", type(e).__name__)])
        return 3
    except OSError as e:
        _emit([f"error: {e}"], [("status", "error"), ("error", "OSError")])
        return 3


def entrypoint():
    sys.exit(main(sys.argv[1:]))
