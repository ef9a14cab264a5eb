"""Fuzz the text parsers: any input ends in a value or a ToolError.

Inputs are arbitrary text, or a header and body lines built from each
format's own vocabulary (header words, opcodes, vertex letters, product
kinds, small, negative and huge numbers).  The .gr and .td texts are
mostly well formed: the edge lines of a drawn graph, or the bag lines and
tree edges of a drawn tree over the host, in a drawn order, under a
header that holds their counts.  Some of their lines are replaced or
joined by odd ones, some headers have one count changed and some texts
are arbitrary, so that most examples get past the header, reach the
checks on the body and meet them in any order, and some get through them.
The odd .gr and .td body lines also hold the numerals 1..n+1 of the graph
in use and numerals that are not written as "1".."n" ("03", "-0") or are
no numerals at all ("1_0", "+3"), and a well-formed line is now and then
written with "03" for "3", so that the numeral dicts miss on some lines
and each such line is checked on its own.  The .gr and .td readers are
also run against their two-pass forms frozen in frozen_readers, which
must agree on every input.
Minor scripts, which also carry tree-width lower witnesses, get step
lines over the same ids, and operation scripts the same unusual numerals.
Every parser refuses a number that is not an optional "-" and ASCII
digits, even where int() would read it.
"""

import pytest
from hypothesis import given, settings, strategies as st

from twpw.cli import parse_opscript
from twpw.decomposition import TreeDecomposition
from twpw.errors import ToolError
from twpw.fileformats import parse_gr, parse_td
from twpw.graphs import Graph, path_graph
from twpw.minors import MinorScript, parse_minor_script
from twpw.operations import OPCODES

from frozen_readers import frozen_parse_gr, frozen_two_pass_parse_td

SMALL = st.integers(-1, 5).map(str)
NUMBERS = SMALL | SMALL | st.integers(-10**30, 10**30).map(str)
ODD_NUMERALS = st.sampled_from(["1_0", "+3", "03", "-0"])
WORDS = st.one_of(
    st.sampled_from(["p", "tw", "s", "td", "b", "c", "#", "a", "z", "d", "dv", "1.5", "٣"]),
    st.sampled_from(sorted(OPCODES)),
    st.text(max_size=4),
)
HOSTS = st.sampled_from([Graph(), Graph([0]), path_graph(2), path_graph(3),
                         Graph(range(4), [(0, 1), (2, 3)])])


def lines(shaped):
    """Lines shaped like the format's own, or any few tokens."""
    return shaped | st.lists(NUMBERS | WORDS, max_size=7).map(" ".join)


def lead_and_args(lead, args):
    return st.builds(lambda head, rest: " ".join([head, *rest]), lead, st.lists(args, max_size=5))


def document(header, body):
    """A header line followed by body lines; arbitrary text one time in four."""
    built = st.builds(lambda head, rest: "\n".join([head, *rest]),
                      header, st.lists(body, max_size=10))
    return st.integers(0, 3).flatmap(lambda pick: built if pick else st.text())


def ids(n):
    """Numerals around 1..n, the ids of a graph or a tree with n nodes."""
    return SMALL | ODD_NUMERALS | st.integers(1, n + 1).map(str)


def pairs(n):
    return st.builds("{} {}".format, ids(n), ids(n))


OPCODE_LINES = lines(lead_and_args(st.sampled_from(sorted(OPCODES)),
                                   NUMBERS | WORDS | ODD_NUMERALS))
SCRIPT_TEXT = document(OPCODE_LINES, OPCODE_LINES)
MINOR_LINES = lines(lead_and_args(st.sampled_from(["d", "c", "dv", "#"]), ids(8)))
MINOR_TEXT = document(MINOR_LINES, MINOR_LINES)


def numeral(v):
    """v as a numeral the readers' dicts hold, or now and then as one they
    miss ("03") and check on its own."""
    return st.sampled_from([str(v), str(v), str(v), f"0{v}"])


def header_of(draw, lead, counts):
    """The header "lead counts..."; when a draw from 0..4 gives 4, one
    count is changed to a drawn token."""
    tokens = [*lead, *map(str, counts)]
    if draw(st.integers(0, 4)) == 4:
        tokens[len(lead) + draw(st.integers(0, len(counts) - 1))] = draw(NUMBERS | WORDS)
    return " ".join(tokens)


def body_of(draw, good, odd):
    """The lines of good in a drawn order, with up to two of them replaced
    by, and up to two more inserted from, the drawn odd lines."""
    body = list(draw(st.permutations(good)))
    for _ in range(draw(st.integers(0, 2)) if body else 0):
        body[draw(st.integers(0, len(body) - 1))] = draw(odd)
    for _ in range(draw(st.integers(0, 2))):
        body.insert(draw(st.integers(0, len(body))), draw(odd))
    return body


def text_or_any(draw, header, body):
    """The header and body lines, or arbitrary text when a draw from 0..7
    gives 7."""
    if draw(st.integers(0, 7)) == 7:
        return draw(st.text())
    return "\n".join([header, *body])


@st.composite
def gr_text(draw):
    """A .gr text whose header counts are mostly those of its edge lines."""
    n = draw(st.integers(0, 8))
    every = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = draw(st.lists(st.sampled_from(every), unique=True, max_size=10)) if every else []
    good = [" ".join(draw(numeral(x)) for x in draw(st.permutations(e))) for e in edges]
    header = header_of(draw, ["p", "tw"], [n, len(good)])
    return text_or_any(draw, header, body_of(draw, good, lines(pairs(n))))


@st.composite
def td_inputs(draw):
    """(text, host): a .td text whose header counts are mostly those of
    host and of its bag lines, which with its tree edges mostly describe
    a tree (a path when r <= 3) on the bags 1..r."""
    host = draw(HOSTS)
    r = draw(st.integers(1, 4))
    members = st.lists(st.integers(1, host.n), unique=True, max_size=3) if host.n else st.just([])
    bags = [draw(members) for _ in range(r)]
    good = [" ".join(["b", draw(numeral(i)), *(draw(numeral(v)) for v in bag)])
            for i, bag in enumerate(bags, 1)]
    good += [f"{draw(numeral(draw(st.integers(1, i - 1))))} {draw(numeral(i))}"
             for i in range(2, r + 1)]
    header = header_of(draw, ["s", "td"], [r, max(map(len, bags)), host.n])
    bag_lines = st.builds(lambda ident, members: " ".join(["b", ident, *members]),
                          ids(r), st.lists(ids(host.n), max_size=5))
    # a second line for a bag, with more members: a repeated id and,
    # often, a member out of range on one line
    repeats = st.builds(lambda line, more: " ".join([line, *more]),
                        st.sampled_from(good[:r]), st.lists(ids(host.n), max_size=2))
    odd = lines(bag_lines | repeats | pairs(r))
    return text_or_any(draw, header, body_of(draw, good, odd)), host


def value_or_tool_error(parse, *args):
    try:
        parse(*args)
    except ToolError:
        pass


@settings(max_examples=100, deadline=None)
@given(gr_text())
def test_parse_gr_raises_only_tool_errors(text):
    value_or_tool_error(parse_gr, text)


@pytest.mark.parametrize("kind", ["tree", "path"])
@settings(max_examples=100, deadline=None)
@given(td_inputs())
def test_parse_td_raises_only_tool_errors(kind, text_and_host):
    value_or_tool_error(parse_td, *text_and_host, kind)


def outcome(parse, *args):
    """The value read, as comparable parts, or the error's (type, message)."""
    try:
        value = parse(*args)
    except ToolError as exc:
        return type(exc), str(exc)
    if isinstance(value, TreeDecomposition):
        return type(value), dict(value.bags), frozenset(value.tree.edges)
    if isinstance(value, Graph):
        return type(value), value
    return type(value), value.bags


@settings(max_examples=300, deadline=None)
@given(gr_text())
def test_parse_gr_agrees_with_two_pass_reader(text):
    assert outcome(parse_gr, text) == outcome(frozen_parse_gr, text)


@pytest.mark.parametrize("kind", ["tree", "path"])
@settings(max_examples=300, deadline=None)
@given(td_inputs())
def test_parse_td_agrees_with_two_pass_reader(kind, text_and_host):
    text, host = text_and_host
    assert outcome(parse_td, text, host, kind) == outcome(frozen_two_pass_parse_td, text, host, kind)


@settings(max_examples=100, deadline=None)
@given(SCRIPT_TEXT)
def test_parse_opscript_raises_only_tool_errors(text):
    value_or_tool_error(parse_opscript, text)


@settings(max_examples=100, deadline=None)
@given(MINOR_TEXT)
def test_parse_minor_script_raises_only_tool_errors(text):
    try:
        script = parse_minor_script(text)
    except ToolError:
        return
    assert isinstance(script, MinorScript)


@pytest.mark.parametrize("token", ["1_0", "+3", "\u0663"])
@pytest.mark.parametrize("parse, text", [
    (parse_gr, "p tw 10 1\n1 {}\n"),
    (lambda text: parse_td(text, path_graph(3)), "s td 1 3 3\nb 1 1 2 {}\n"),
    (lambda text: parse_td(text, path_graph(3), "path"), "s td 1 3 3\nb 1 1 2 {}\n"),
    (parse_minor_script, "dv {}\n"),
    (parse_opscript, "delv {}\n"),
], ids=["gr", "td-tree", "td-path", "minor", "opscript"])
def test_unusual_numerals_are_refused(parse, text, token):
    """Each text is valid with the token written as a plain numeral."""
    parse(text.format("3"))
    with pytest.raises(ToolError):
        parse(text.format(token))
