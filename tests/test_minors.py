import pytest

from twpw.errors import CapabilityError, FormatError, ParameterError, ScriptError
from twpw.exact import exact_pathwidth, exact_treewidth
from twpw.graphs import (
    Graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    incidence_star_example,
    is_isomorphic,
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

from smallgraphs import all_graphs_up_to


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
