"""tools/unrun.py: the line-to-statement map and the lines that carry code,
on which its never-run report rests."""

import ast
import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "unrun", Path(__file__).resolve().parents[1] / "tools" / "unrun.py")
unrun = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(unrun)

# a decorator, a multi-line signature and expression, a compound header over
# two lines, a blank line inside a body and a nested function
SOURCE = '''\
import functools


@functools.lru_cache(maxsize=None)
def outer(a,
          b):
    total = (a +
             b)
    if total > 3 and \\
            a:
        return total

    def inner(c):
        return c * 2
    return inner(total)
'''


def test_statement_of_line():
    owner = unrun._statement_of_line(ast.parse(SOURCE))
    assert owner == {1: 1,
                     4: 5, 5: 5, 6: 5,   # the decorator belongs to its def
                     7: 7, 8: 7,         # one statement over two lines
                     9: 9, 10: 9,        # the if keeps its header
                     11: 11,
                     12: 5,              # a blank line in outer's body
                     13: 13, 14: 14, 15: 15}


def test_code_lines_reach_nested_functions():
    code = compile(SOURCE, "<source>", "exec")
    lines = unrun._code_lines(code)
    # outer's and inner's bodies live in nested code objects only
    assert not {11, 14} & {line for _, _, line in code.co_lines()}
    assert {1, 4, 7, 9, 11, 13, 14, 15} <= lines
    assert not lines & {2, 3, 6, 12}
    owner = unrun._statement_of_line(ast.parse(SOURCE))
    assert {owner[line] for line in lines} == {1, 5, 7, 9, 11, 13, 14, 15}
