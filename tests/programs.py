"""Small programs that each fail one way, for the interpreter's tests and
tools/cli_identity.py.

Each begins by invoking a framework init function, so the command line
runs it.  STUCK maps a name to a program and the reason its run gets
stuck; BROKEN maps a name to a program with exactly one error and the
message of the ProgramError that parse_program raises for it.
load_gen loads perfbench/gen.py, which builds the pair traces of
tests/pairs.py and whose pairs_program(n, skip) nests one ``if ... else``
per pair."""

import importlib.util
import pathlib

BOOT = "let boot = (x =>[fwk] {}) in\ninvoke (bind boot unit)\n"

STUCK = {
    "if-non-boolean": (BOOT.format("if 1 then unit else unit"),
                       "if condition is 1, not a boolean"),
    "bind-non-function": (BOOT.format("bind x unit"), "bind on non-function unit"),
    "bind-saturated": ("let f = (y =>[fwk] y) in\n" + BOOT.format("bind (bind f x) x"),
                       "bind on saturated thunk f[unit]"),
    "add-non-integers": (BOOT.format("add x 1"), "add on non-integers"),
    "get-non-cell": (BOOT.format("get x"), "get on non-cell unit"),
    "set-non-cell": (BOOT.format("set 7 x"), "set on non-cell 7"),
    "force-partial": ("let g = ((y, z) =>[fwk] y) in\n" + BOOT.format("invoke (bind g x)"),
                      "forcing g with 1 of 2 arguments"),
    "closure-argument": (
        "let h = (y =>[fwk] y) in\nlet f = (y =>[fwk] unit) in\n"
        "let cb = (y =>[app] invoke (bind f h)) in\n" + BOOT.format("invoke (bind cb x)"),
        "value <fun h [fwk]> crosses the app-framework interface but is not observable"),
    "closure-return": (
        "let h = (y =>[fwk] y) in\nlet f = (y =>[fwk] h) in\n"
        "let cb = (y =>[app] invoke (bind f y)) in\n" + BOOT.format("invoke (bind cb x)"),
        "return value <fun h [fwk]> crosses the interface but is not observable"),
}

BROKEN = {
    "unbound": (BOOT.format("y"), "line 1: unbound identifier 'y'"),
    "thk-top-level": ("let boot = (x =>[fwk] unit) in\ninvoke thk\n",
                      "line 2: 'thk' outside a function body"),
    "app-enable": ("let cb = (y =>[app] enable thk) in\n" + BOOT.format("invoke (bind cb x)"),
                   "line 1: app code may not use 'enable'"),
    "force": (BOOT.format("unit;\n  force x"), "line 2: 'force' is machine-internal"),
    "duplicate-parameters": ("let boot = ((x, x) =>[fwk] x) in\ninvoke (bind boot unit)\n",
                             "line 1: duplicate parameter names"),
    "unexpected-end": ("let boot = (x =>[fwk] unit) in\ninvoke (bind boot",
                       "line 2: unexpected end of input"),
}


def load_gen():
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen
