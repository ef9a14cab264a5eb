"""Minor containment with replayable witnesses; small obstruction tests.

A minor embedding is searched as a family of disjoint connected branch
sets, one per vertex of the pattern, with an edge between branch sets for
every pattern edge.  A found embedding is turned into a script of edge
deletions, contractions and vertex deletions that replays the pattern from
the host graph.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CapabilityError, FormatError, ParameterError, ScriptError
from .graphs import Graph, complete_graph, incidence_star_example

MINOR_MAX_VERTICES = 12


@dataclass(frozen=True)
class MinorScript:
    """Steps: ("d", u, v) edge deletion, ("c", u, v) contraction, ("dv", v)."""

    steps: tuple[tuple, ...]


def format_minor_script(script: MinorScript) -> str:
    """One step per line; vertex ids written 1-based to match .gr files."""
    lines = []
    for step in script.steps:
        if step[0] in ("d", "c"):
            lines.append(f"{step[0]} {step[1] + 1} {step[2] + 1}")
        elif step[0] == "dv":
            lines.append(f"dv {step[1] + 1}")
        else:
            raise ParameterError(f"unknown minor step {step!r}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_minor_script(text: str) -> MinorScript:
    steps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        try:
            if tokens[0] in ("d", "c") and len(tokens) == 3:
                steps.append((tokens[0], int(tokens[1]) - 1, int(tokens[2]) - 1))
            elif tokens[0] == "dv" and len(tokens) == 2:
                steps.append(("dv", int(tokens[1]) - 1))
            else:
                raise FormatError(f"line {lineno}: bad minor step {line!r}")
        except ValueError:
            raise FormatError(f"line {lineno}: non-numeric id in {line!r}") from None
    return MinorScript(tuple(steps))


def apply_minor_script(g: Graph, script: MinorScript) -> Graph:
    """Replay a script; failures name the 1-based step index."""
    from . import unary

    cur = g
    for i, step in enumerate(script.steps, start=1):
        try:
            if step[0] == "d":
                cur = unary.delete_edge(cur, step[1], step[2]).graph
            elif step[0] == "c":
                cur = unary.contract_edge(cur, step[1], step[2]).graph
            elif step[0] == "dv":
                cur = unary.delete_vertex(cur, step[1]).graph
            else:
                raise ParameterError(f"unknown minor step {step!r}")
        except ParameterError as exc:
            raise ScriptError(str(exc), step=i) from exc
    return cur


def _connected_subsets(root_bit: int, allowed: int, adj: list[int], max_size: int):
    """All connected subsets of allowed containing root_bit, each once."""

    def rec(cur: int, nb: int, banned: int):
        yield cur
        if cur.bit_count() >= max_size:
            return
        cand = nb & allowed & ~cur & ~banned
        while cand:
            low = cand & -cand
            yield from rec(cur | low, nb | adj[low.bit_length() - 1], banned)
            banned |= low
            cand ^= low

    yield from rec(root_bit, adj[root_bit.bit_length() - 1], 0)


def is_minor(h: Graph, g: Graph) -> tuple[bool, MinorScript | None]:
    """Decide whether h is a minor of g; on success return a witness script.

    Replaying the script on g yields a graph equal to h up to the ids the
    contractions introduce.
    """
    if g.n > MINOR_MAX_VERTICES:
        raise CapabilityError(f"minor test supports at most {MINOR_MAX_VERTICES} vertices")
    if h.n > g.n or h.m > g.m:
        return False, None
    if h.n == 0:
        return True, MinorScript(tuple(("dv", v) for v in g.vertices_sorted()))

    gorder = g.vertices_sorted()
    adj = g.masks()

    horder = sorted(h.vertices, key=lambda v: (-h.degree(v), v))
    hnbrs = [
        [j for j in range(i) if h.has_edge(horder[i], horder[j])] for i in range(h.n)
    ]
    assign = [0] * h.n
    reach = [0] * h.n  # union of adj over the branch set, once assigned

    def place(i: int, used: int) -> bool:
        if i == h.n:
            return True
        free_left = g.n - used.bit_count()
        if free_left < h.n - i:
            return False
        budget = free_left - (h.n - i - 1)
        roots = ~used & ((1 << g.n) - 1)
        while roots:
            root = roots & -roots
            roots ^= root
            # each branch set is enumerated rooted at its minimum id
            allowed = (~used & -(root << 1)) | root
            for sub in _connected_subsets(root, allowed, adj, budget):
                if any(not reach[j] & sub for j in hnbrs[i]):
                    continue
                nb = 0
                for b in range(sub.bit_length()):
                    if sub >> b & 1:
                        nb |= adj[b]
                assign[i] = sub
                reach[i] = nb
                if place(i + 1, used | sub):
                    return True
        return False

    if not place(0, 0):
        return False, None
    sets = [frozenset(gorder[b] for b in range(g.n) if assign[i] >> b & 1) for i in range(h.n)]
    return True, _script_from_branch_sets(g, h, horder, sets)


def _script_from_branch_sets(
    g: Graph, h: Graph, horder: list[int], sets: list[frozenset[int]]
) -> MinorScript:
    from . import unary

    steps: list[tuple] = []
    cur = g
    used = frozenset().union(*sets)
    for v in sorted(g.vertices - used):
        steps.append(("dv", v))
        cur = unary.delete_vertex(cur, v).graph
    reps = {}
    for hv, branch in zip(horder, sets):
        alive = set(branch)
        while len(alive) > 1:
            u, v = min((u, v) for u in alive for v in alive if u < v and cur.has_edge(u, v))
            z = max(cur.vertices) + 1
            steps.append(("c", u, v))
            cur = unary.contract_edge(cur, u, v).graph
            alive -= {u, v}
            alive.add(z)
        reps[hv] = alive.pop()
    keep = {
        (min(reps[a], reps[b]), max(reps[a], reps[b])) for a, b in h.edges
    }
    for u, v in cur.edges_sorted():
        if (u, v) not in keep:
            steps.append(("d", u, v))
            cur = unary.delete_edge(cur, u, v).graph
    return MinorScript(tuple(steps))


def classify_treewidth_le(g: Graph, k: int) -> tuple[bool, MinorScript | None]:
    """Forbidden-minor test: K3 for width 1, K4 for width 2.

    Returns (answer, witness); the witness embeds the obstruction when the
    answer is False.
    """
    if k == 1:
        found, script = is_minor(complete_graph(3), g)
    elif k == 2:
        found, script = is_minor(complete_graph(4), g)
    else:
        raise ParameterError("only widths 1 and 2 have implemented obstruction sets")
    return not found, script


def classify_pathwidth_le_1(g: Graph) -> tuple[bool, MinorScript | None]:
    """Path-width <= 1 holds exactly when neither K3 nor the subdivided
    K_{1,3} occurs as a minor."""
    found, script = is_minor(complete_graph(3), g)
    if found:
        return False, script
    found, script = is_minor(incidence_star_example(), g)
    if found:
        return False, script
    return True, None
