"""Command line front end: generate, transform, solve, validate, sweep.

Operation scripts are line-oriented: one opcode plus arguments per line,
`#` starts a comment.  Vertex arguments are 1-based ranks into the sorted
vertex ids of the current graph, so scripts survive the renumbering that
binary operations perform.  Numbers, in scripts as in generator
parameters and integer options, are numerals as in the file formats, an
optional "-" and ASCII digits; in scripts a single ASCII letter is
accepted as an alias for its alphabet position (a = 1).  Exit codes: 0 ok, 1 validation
failure or internal inconsistency, 2 usage, parse or script errors, 3
capability guard exceeded.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import sys
from dataclasses import dataclass

from .decomposition import validate, width
from .errors import InconsistencyError, ParameterError, ScriptError, ToolError
from .exact import exact_width
from .fileformats import _numeral, read_gr, read_td, write_gr, write_td
from .graphs import Graph, generate, generator_names, guard_size
from .harness import SUITES, SolveTable, SweepConfig, check_suites, render_tap, run_suite
from .minors import format_minor_script
from .operations import OPCODES
from .results import Result


# --- operation scripts ------------------------------------------------------


@dataclass(frozen=True)
class OpScript:
    lines: tuple[tuple[int, str, tuple], ...]  # (line number, opcode, args)


def _parse_token(token: str, lineno: int) -> int:
    """A numeral (an optional "-" and ASCII digits), or one ASCII letter
    read as its alphabet position."""
    if len(token) == 1 and token.isascii() and token.isalpha():
        return ord(token.lower()) - ord("a") + 1
    try:
        return _numeral(token)
    except ValueError:
        raise ScriptError(f"line {lineno}: bad argument {token!r}") from None


def parse_opscript(text: str) -> OpScript:
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        opcode, *args = line.split()
        if opcode not in OPCODES:
            raise ScriptError(f"line {lineno}: unknown operation {opcode!r}")
        names = OPCODES[opcode].args.split()
        if names == ["<kind>"]:
            if len(args) != 1:
                raise ScriptError(f"line {lineno}: {opcode} takes one argument")
            parsed = (args[0],)
        else:
            if names != ["[v...]"] and len(args) != len(names):
                raise ScriptError(
                    f"line {lineno}: {opcode} takes {len(names)} argument(s)"
                )
            parsed = tuple(_parse_token(t, lineno) for t in args)
        lines.append((lineno, opcode, parsed))
    return OpScript(tuple(lines))


def read_opscript(path) -> OpScript:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ScriptError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    return parse_opscript(text)


def _rank_to_vertex(g: Graph, rank: int, lineno: int) -> int:
    vs = g.vertices_sorted()
    if not 1 <= rank <= len(vs):
        raise ScriptError(
            f"line {lineno}: vertex rank {rank} out of range 1..{len(vs)}"
        )
    return vs[rank - 1]


def _resolve(op, args: tuple, g: Graph, g2: Graph | None, lineno: int) -> tuple:
    """Script arguments to operation arguments: vertex ranks become ids."""
    names = op.args.split()
    if names == ["[v...]"]:
        return ([_rank_to_vertex(g, k, lineno) for k in args],)
    return tuple(
        _rank_to_vertex(g2 if name == "w" else g, a, lineno)
        if name in ("u", "v", "w") else a
        for name, a in zip(names, args)
    )


def _apply(state: Result, lineno: int, opcode: str, script_args: tuple,
           g2: Graph | None, kind: str) -> Result:
    """The result of one script line on state; with a carried decomposition,
    an operation that cannot carry it is refused."""
    op = OPCODES[opcode]
    graphs = (state.graph, g2)[: op.arity]
    if graphs[-1] is None:
        raise ScriptError(f"line {lineno}: {opcode} needs --graph2")
    d1, d2 = state.decomposition, None
    if d1 is not None and op.decs == 2:
        # the second input arrives without a decomposition; solve for one
        d2 = exact_width(g2, "tw" if kind == "tree" else "pw").certificate
    args = _resolve(op, script_args, state.graph, g2, lineno)
    if d1 is not None and not op.can_carry(*args):
        # a word argument picks a variant of the operation (a product kind)
        name = " ".join([opcode, *(a for a in args if isinstance(a, str))])
        raise ScriptError(
            f"line {lineno}: {name} has no decomposition transformer; "
            "drop --carry or split the pipeline"
        )
    try:
        return op.op(*graphs, *(d1, d2)[: op.decs], *args)
    except ParameterError as exc:
        raise ScriptError(f"line {lineno}: {exc}") from exc


def apply_opscript(script: OpScript, g: Graph, g2: Graph | None = None,
                   carry=None, kind: str = "tree") -> Result:
    """The script run over g, carrying carry when it is given: the last
    line's result, or g with carry claimed at its own width.  A result
    larger than the .gr reader accepts ends the run (CapabilityError)."""
    state = Result(g, carry, None if carry is None else width(carry))
    for lineno, opcode, args in script.lines:
        state = _apply(state, lineno, opcode, args, g2, kind)
        guard_size(state.graph.n, state.graph.m)
    return state


# --- subcommands ------------------------------------------------------------


def cmd_gen(args) -> int:
    try:
        params = [_numeral(p) for p in args.params[:-1]]
    except ValueError:
        raise ParameterError(
            "generator parameters must be integers, followed by the output path"
        ) from None
    out = args.params[-1]
    g = generate(args.kind, *params)
    write_gr(g, out)
    return 0


def cmd_width(args) -> int:
    g = read_gr(args.graph)
    report = exact_width(g, args.param)
    print("undefined" if report.value < 0 else report.value)
    if args.cert:
        write_td(report.certificate, args.cert)
        if report.lower_witness is not None:
            with open(f"{args.cert}.witness", "w", encoding="ascii") as fh:
                fh.write(format_minor_script(report.lower_witness))
    return 0


def cmd_apply(args) -> int:
    if args.carry_out and not args.carry:
        raise ParameterError("--carry-out needs --carry")
    g = read_gr(args.graph)
    g2 = read_gr(args.graph2) if args.graph2 else None
    script = read_opscript(args.script)
    carry = None
    if args.carry:
        carry = read_td(args.carry, g, kind=args.kind)
        report = validate(g, carry)
        if not report.valid:
            print(_render_violations(report), end="")
            return 1
    state = apply_opscript(script, g, g2, carry, args.kind)
    if carry is not None:
        report = validate(state.graph, state.decomposition)
        if not report.valid:
            raise InconsistencyError(
                "pipeline produced an invalid decomposition; refusing to write"
            )
    write_gr(state.graph, args.out)
    if carry is not None:
        if args.carry_out:
            write_td(state.decomposition, args.carry_out)
        # Decimal prints an int of any length; str stops at 4,300 digits
        print(f"claimed {decimal.Decimal(state.claimed_bound)}")
    return 0


def _render_violations(report) -> str:
    out = []
    for v in report.violations:
        tag, witness = v.tag, v.witness
        shown = " ".join(str(x + 1) for x in witness)
        if tag in ("tw-2", "pw-2"):
            out.append(f"({tag}) edge {shown}")
        else:
            out.append(f"({tag}) vertex {shown}")
    return "".join(line + "\n" for line in out)


def cmd_validate(args) -> int:
    g = read_gr(args.graph)
    d = read_td(args.td, g, kind=args.kind)
    report = validate(g, d)
    if report.valid:
        w = width(d)
        print("valid" if w < 0 else f"valid width {w}")
        return 0
    print(_render_violations(report), end="")
    return 1


def cmd_harness(args) -> int:
    cfg = SweepConfig(max_n=args.max_n, samples=args.samples, seed=args.seed)
    suites = SUITES if args.suite == "all" else (args.suite,)
    check_suites(suites, cfg)
    # one table for the run's suites, dropped when the run returns
    solved = SolveTable()
    checks = []
    for name in suites:
        checks.extend(run_suite(name, cfg, args.witness_dir, solved))
    sys.stdout.write(render_tap(checks))
    return 0 if all(c.passed for c in checks) else 1


def _integer(token: str) -> int:
    """An integer option's value: a numeral as in the file formats."""
    try:
        return _numeral(token)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {token!r}") from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on the first call and then reused:
    parsing leaves it unchanged, and each subcommand's function looks up
    what it calls when it runs."""
    parser = argparse.ArgumentParser(
        prog="twpw",
        description="graph width toolkit: exact solvers, rewrites, sweeps",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a generated graph")
    p.add_argument("kind", choices=generator_names())
    p.add_argument("params", nargs="+",
                   help="generator parameters, then the output path")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("width", help="exact width of a graph")
    p.add_argument("graph")
    p.add_argument("--param", choices=("tw", "pw"), required=True)
    p.add_argument("--cert", help="write an optimal decomposition here; when the "
                   "tree-width bounds decided, the lower witness goes to CERT.witness")
    p.set_defaults(fn=cmd_width)

    p = sub.add_parser("apply", help="run an operation script over a graph")
    p.add_argument("graph")
    p.add_argument("script")
    p.add_argument("out")
    p.add_argument("--graph2", help="second input for binary operations")
    p.add_argument("--carry", help="decomposition to rewrite alongside")
    p.add_argument("--carry-out", help="where to write the rewritten decomposition")
    p.add_argument("--kind", choices=("tree", "path"), default="tree")
    p.set_defaults(fn=cmd_apply)

    p = sub.add_parser("validate", help="check a decomposition against a graph")
    p.add_argument("graph")
    p.add_argument("td")
    p.add_argument("--kind", choices=("tree", "path"), default="tree")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("harness", help="run the bound-checking sweeps")
    p.add_argument("action", choices=("run",))
    p.add_argument("--suite", choices=("all",) + SUITES, default="all")
    p.add_argument("--max-n", type=_integer, default=8)
    p.add_argument("--samples", type=_integer, default=200)
    p.add_argument("--seed", type=_integer, default=1)
    p.add_argument("--witness-dir", default="witnesses")
    p.set_defaults(fn=cmd_harness)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ToolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
