import pytest

from twpw.errors import CapabilityError, FormatError, ParameterError, ScriptError
from twpw.exact import exact_pathwidth, exact_treewidth
from twpw.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    incidence_star_example,
    path_graph,
    star_graph,
)
from twpw.harness import SplitMix64, random_graph
from twpw.minors import (
    MINOR_MAX_VERTICES,
    MinorScript,
    apply_minor_script,
    classify_pathwidth_le_1,
    classify_treewidth_le,
    format_minor_script,
    is_minor,
    parse_minor_script,
    replay_lower_witness,
)

from frozen_minors import frozen_replay
from smallgraphs import all_graphs_up_to, is_isomorphic


class TestScripts:
    def test_format_and_parse_round_trip(self):
        script = MinorScript((("dv", 0), ("c", 1, 2), ("d", 3, 4)))
        text = format_minor_script(script)
        assert text == "dv 1\nc 2 3\nd 4 5\n"
        assert parse_minor_script(text) == script

    def test_edge_addition_round_trips(self):
        script = MinorScript((("dv", 0), ("a", 3, 4), ("c", 1, 2)))
        text = format_minor_script(script)
        assert text == "dv 1\na 4 5\nc 2 3\n"
        assert parse_minor_script(text) == script

    def test_edge_addition_is_refused_as_a_minor_step(self):
        with pytest.raises(ScriptError, match="step 1: an edge addition is not a minor step"):
            apply_minor_script(cycle_graph(4), MinorScript((("a", 0, 2),)))

    def test_edge_addition_replays_in_a_lower_witness(self):
        # 0 and 2 share 1 and 3 in the 4-cycle: enough for 2, not for 3
        script = MinorScript((("a", 0, 2), ("a", 1, 3)))
        assert replay_lower_witness(cycle_graph(4), script, 2) == complete_graph(4)
        with pytest.raises(ScriptError, match="step 1: .* fewer than 3"):
            replay_lower_witness(cycle_graph(4), script, 3)

    def test_comments_skipped(self):
        assert parse_minor_script("# nothing\n\ndv 3\n") == MinorScript((("dv", 2),))

    def test_bad_opcode(self):
        with pytest.raises(FormatError):
            parse_minor_script("shrink 1 2\n")

    def test_bad_arity(self):
        with pytest.raises(FormatError):
            parse_minor_script("c 1\n")

    @pytest.mark.parametrize("text", ["c +3 1_0\n", "dv 1_0\n", "d 1 \u0663\n", "dv 1.0\n"])
    def test_ids_must_be_numerals(self, text):
        with pytest.raises(FormatError, match="non-numeric id"):
            parse_minor_script(text)

    def test_apply_names_failing_step(self):
        g = path_graph(3)
        script = MinorScript((("dv", 0), ("c", 0, 1)))
        with pytest.raises(ScriptError) as err:
            apply_minor_script(g, script)
        assert "step 2" in str(err.value)

    def test_apply_replays(self):
        g = cycle_graph(4)
        script = MinorScript((("c", 0, 1),))
        assert is_isomorphic(apply_minor_script(g, script), cycle_graph(3))


class TestIsMinor:
    def test_triangle_in_cycle(self):
        found, script = is_minor(complete_graph(3), cycle_graph(5))
        assert found
        assert is_isomorphic(apply_minor_script(cycle_graph(5), script), complete_graph(3))

    def test_triangle_not_in_tree(self):
        found, script = is_minor(complete_graph(3), incidence_star_example())
        assert not found and script is None

    def test_k4_in_k4(self):
        found, script = is_minor(complete_graph(4), complete_graph(4))
        assert found
        assert apply_minor_script(complete_graph(4), script) == complete_graph(4)

    def test_k4_needs_enough_edges(self):
        found, _ = is_minor(complete_graph(4), cycle_graph(6))
        assert not found

    def test_cycle_in_grid(self):
        found, script = is_minor(cycle_graph(4), grid_graph(3, 3))
        assert found
        assert is_isomorphic(apply_minor_script(grid_graph(3, 3), script), cycle_graph(4))

    def test_k4_in_grid(self):
        # planar, so K4 fits but K5 cannot
        found, script = is_minor(complete_graph(4), grid_graph(3, 3))
        assert found
        assert is_isomorphic(apply_minor_script(grid_graph(3, 3), script), complete_graph(4))
        found, _ = is_minor(complete_graph(5), grid_graph(3, 3))
        assert not found

    def test_path_pattern_spans_disconnected_host(self):
        host = Graph(range(4), [(0, 1), (2, 3)])
        found, _ = is_minor(path_graph(3), host)
        assert not found

    def test_star_in_star(self):
        found, script = is_minor(star_graph(3), star_graph(5))
        assert found
        assert is_isomorphic(apply_minor_script(star_graph(5), script), star_graph(3))

    def test_empty_pattern(self):
        found, script = is_minor(Graph(), path_graph(3))
        assert found
        assert apply_minor_script(path_graph(3), script) == Graph()

    def test_pattern_larger_than_host(self):
        found, script = is_minor(complete_graph(4), complete_graph(3))
        assert not found and script is None

    def test_host_guard(self):
        with pytest.raises(CapabilityError):
            is_minor(complete_graph(3), Graph(range(MINOR_MAX_VERTICES + 1)))

    def test_subgraphs_are_minors(self):
        rng = SplitMix64(21)
        for _ in range(20):
            g = random_graph(rng, 2 + rng.next_below(6), 5)
            if g.m == 0:
                continue
            drop = g.edges_sorted()[rng.next_below(g.m)]
            h = Graph(g.vertices, [e for e in g.edges if tuple(sorted(e)) != drop])
            found, script = is_minor(h, g)
            assert found
            assert is_isomorphic(apply_minor_script(g, script), h)


class TestClassifiers:
    def test_treewidth_le_one_is_forest_test(self):
        for g in all_graphs_up_to(5):
            if g.n == 0:
                continue
            answer, witness = classify_treewidth_le(g, 1)
            assert answer == (exact_treewidth(g).value <= 1)
            if not answer:
                assert is_isomorphic(
                    apply_minor_script(g, witness), complete_graph(3)
                )

    def test_treewidth_le_two_matches_solver(self):
        for g in all_graphs_up_to(5):
            if g.n == 0:
                continue
            answer, witness = classify_treewidth_le(g, 2)
            assert answer == (exact_treewidth(g).value <= 2)
            if not answer:
                assert is_isomorphic(
                    apply_minor_script(g, witness), complete_graph(4)
                )

    def test_pathwidth_le_one_matches_solver(self):
        for g in all_graphs_up_to(5):
            if g.n == 0:
                continue
            answer, witness = classify_pathwidth_le_1(g)
            assert answer == (exact_pathwidth(g).value <= 1)
            if not answer:
                obstruction = apply_minor_script(g, witness)
                assert is_isomorphic(obstruction, complete_graph(3)) or is_isomorphic(
                    obstruction, incidence_star_example()
                )

    def test_spider_is_the_pathwidth_obstruction(self):
        answer, witness = classify_pathwidth_le_1(incidence_star_example())
        assert not answer
        assert is_isomorphic(
            apply_minor_script(incidence_star_example(), witness),
            incidence_star_example(),
        )

    def test_unsupported_width_rejected(self):
        with pytest.raises(ParameterError):
            classify_treewidth_le(path_graph(3), 3)


def replay_outcome(replay, g, script, value):
    """The graph left, with its adjacency, or the ScriptError's message and
    step."""
    try:
        h = replay(g, script, value)
    except ScriptError as exc:
        return ScriptError, str(exc), exc.step
    return h, h.adjacency()


def assert_replays_as_frozen(g, script, value):
    """replay_lower_witness (or apply_minor_script when value is None) and
    the frozen replay give the same outcome, which is returned."""
    def current(g, script, value):
        if value is None:
            return apply_minor_script(g, script)
        return replay_lower_witness(g, script, value)

    got = replay_outcome(current, g, script, value)
    assert got == replay_outcome(frozen_replay, g, script, value), (g.edges_sorted(), script)
    return got


def broken(rng, g, script):
    """script with one step changed: an absent vertex or a non-edge in its
    place, an addition repeated, or a step of unknown kind."""
    steps = list(script.steps)
    i = rng.next_below(len(steps))
    step = steps[i]
    kind = rng.next_below(4)
    absent = max(g.vertices) + 50
    if kind == 0:
        steps[i] = (step[0], absent, *step[2:])
    elif kind == 1 and len(step) == 3:
        steps[i] = (step[0], step[1], absent)
    elif kind == 2:
        steps.insert(i, step)
    else:
        steps[i] = ("x", *step[1:])
    return MinorScript(tuple(steps))


class TestReplayAgainstFrozen:
    """The replay over one map of neighbor sets against the replay through
    whole graphs it replaced: the same graph, or the same message at the
    same step."""

    def test_every_witness_at_solve_sizes(self):
        rng = SplitMix64(83)
        witnesses = errors = 0
        for seed in range(1, 5):
            for n in range(9, 15):
                for p in (2, 5, 8):
                    g = random_graph(SplitMix64(seed), n, p)
                    tw = exact_treewidth(g)
                    if tw.lower_witness is None:
                        continue
                    witnesses += 1
                    script = tw.lower_witness
                    got = assert_replays_as_frozen(g, script, tw.value)
                    assert got[0] is not ScriptError
                    assert_replays_as_frozen(g, script, tw.value + 1)
                    assert_replays_as_frozen(g, script, None)
                    for _ in range(3 if script.steps else 0):
                        bad = broken(rng, g, script)
                        errors += assert_replays_as_frozen(g, bad, tw.value)[0] is ScriptError
        assert witnesses and errors

    def test_is_minor_scripts(self):
        rng = SplitMix64(89)
        patterns = [complete_graph(3), complete_graph(4), cycle_graph(4), path_graph(3),
                    star_graph(3), incidence_star_example()]
        found = 0
        for _ in range(40):
            g = random_graph(rng, 3 + rng.next_below(6), 1 + rng.next_below(8))
            for h in patterns:
                ok, script = is_minor(h, g)
                if not ok:
                    continue
                found += 1
                assert_replays_as_frozen(g, script, None)
                if script.steps:
                    assert_replays_as_frozen(g, broken(rng, g, script), None)
        assert found

    @pytest.mark.parametrize("steps", [
        (("dv", 5), ("c", 0, 1)),
        (("c", 0, 1), ("dv", 6), ("dv", 5), ("c", 2, 3), ("c", 4, 5)),
        (("dv", 2), ("c", 0, 1), ("c", 6, 5), ("dv", 7), ("c", 3, 4)),
        (("c", 4, 5), ("dv", 3), ("dv", 6), ("c", 0, 1), ("c", 3, 2)),
    ])
    def test_fused_names_after_deleting_the_largest_vertex(self, steps):
        """A contraction's vertex is one above the largest id left, also
        after a deletion of the vertex that held it."""
        got = assert_replays_as_frozen(cycle_graph(6), MinorScript(steps), None)
        assert got[0] is not ScriptError

    @pytest.mark.parametrize("steps, value", [
        ((("dv", 9),), None),  # missing vertex
        ((("dv", 1), ("d", 0, 1)), None),
        ((("c", 0, 9),), None),
        ((("d", 0, 2),), None),  # non-edge
        ((("c", 0, 2),), None),
        ((("d", 1, 1),), None),
        ((("c", 0, 1), ("c", 2, 3), ("d", 4, 5)), None),  # contractions name ids 4 and 5
        ((("dv", 3), ("c", 0, 1), ("dv", 3)), None),  # a deleted top id is reused
        ((("dv", 3), ("c", 0, 1), ("d", 2, 3)), None),
        ((("a", 0, 2),), None),  # an addition is no minor step
        ((("a", 0, 2), ("a", 0, 2)), 2),  # repeated addition
        ((("a", 0, 2), ("a", 2, 0)), 2),
        ((("a", 0, 2),), 3),  # too few common neighbors
        ((("a", 0, 9),), 2),
        ((("a", 9, 0),), 2),
        ((("a", 1, 1),), 2),
        ((("a", 0, 1),), 2),
        ((("a", 0, 2), ("a", 1, 3), ("c", 0, 1)), 2),
        ((("e", 0, 1),), None),  # unknown step
    ])
    def test_broken_scripts(self, steps, value):
        assert_replays_as_frozen(cycle_graph(4), MinorScript(steps), value)
