import time

import pytest

from twpw.cli import apply_opscript, main, parse_opscript
from twpw.errors import ScriptError
from twpw.fileformats import format_gr, format_td, parse_gr, read_gr, read_td
from twpw.exact import exact_pathwidth, exact_treewidth
from twpw.graphs import (
    caterpillar_example,
    complete_graph,
    cycle_graph,
    grid_graph,
    incidence_star_example,
    is_isomorphic,
    path_graph,
)


def write(path, text):
    path.write_text(text)
    return str(path)


def gr(tmp_path, g, name="g.gr"):
    return write(tmp_path / name, format_gr(g))


class TestParseOpscript:
    def test_basic_lines_and_comments(self):
        s = parse_opscript("# setup\nsubdiv 3 6\n\nadde 1 2  # join ends\n")
        assert [(op, args) for _, op, args in s.lines] == [
            ("subdiv", (3, 6)), ("adde", (1, 2))
        ]

    def test_letter_aliases(self):
        s = parse_opscript("subdiv c f\n")
        assert s.lines[0][2] == (3, 6)

    def test_addv_takes_any_arity(self):
        s = parse_opscript("addv\naddv 1 2 3\n")
        assert s.lines[0][2] == ()
        assert s.lines[1][2] == (1, 2, 3)

    def test_unknown_opcode(self):
        with pytest.raises(ScriptError, match="line 1"):
            parse_opscript("explode 3\n")

    def test_wrong_arity(self):
        with pytest.raises(ScriptError, match="line 2"):
            parse_opscript("inci\nsubdiv 3\n")

    def test_bad_token(self):
        with pytest.raises(ScriptError, match="bad argument"):
            parse_opscript("delv x1\n")


class TestApplyOpscript:
    def test_ranks_address_current_graph(self):
        # ids shift after deletion; ranks follow the sorted survivors
        s = parse_opscript("delv 1\ndelv 1\n")
        state = apply_opscript(s, path_graph(4), None, None, "tree")
        assert state.graph.vertices_sorted() == [2, 3]

    def test_rank_out_of_range(self):
        s = parse_opscript("delv 9\n")
        with pytest.raises(ScriptError, match="out of range"):
            apply_opscript(s, path_graph(3), None, None, "tree")

    def test_parameter_errors_name_the_line(self):
        s = parse_opscript("dele 1 2\nadde 1 2\nadde 1 2\n")
        with pytest.raises(ScriptError, match="line 3"):
            apply_opscript(s, path_graph(3), None, None, "tree")


class TestGenAndWidth:
    def test_gen_width_cert_validate_pipeline(self, tmp_path, capsys):
        g_path = str(tmp_path / "c5.gr")
        assert main(["gen", "cycle", "5", g_path]) == 0
        td_path = str(tmp_path / "c5.td")
        assert main(["width", g_path, "--param", "tw", "--cert", td_path]) == 0
        assert capsys.readouterr().out == "2\n"
        assert main(["validate", g_path, td_path]) == 0
        assert capsys.readouterr().out == "valid width 2\n"

    def test_width_of_edgeless_graph(self, tmp_path, capsys):
        g_path = str(tmp_path / "i.gr")
        assert main(["gen", "isolated", "4", g_path]) == 0
        assert main(["width", g_path, "--param", "pw"]) == 0
        assert capsys.readouterr().out == "0\n"

    def test_gen_rejects_bad_params(self, tmp_path):
        assert main(["gen", "cycle", "three", str(tmp_path / "x.gr")]) == 2

    def test_width_guard_is_capability_exit(self, tmp_path):
        g_path = gr(tmp_path, complete_graph(17))
        assert main(["width", g_path, "--param", "tw"]) == 3

    def test_missing_file(self, tmp_path):
        assert main(["width", str(tmp_path / "nope.gr"), "--param", "tw"]) == 2

    def test_non_ascii_graph_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.gr"
        bad.write_bytes(b"p tw 2 1\n1 2\xff\n")
        assert main(["width", str(bad), "--param", "tw"]) == 2
        assert "not ASCII text" in capsys.readouterr().err

    def test_malformed_graph_file(self, tmp_path):
        bad = write(tmp_path / "bad.gr", "p tw 2 1\n1 2\n1 5\n")
        assert main(["width", bad, "--param", "tw"]) == 2


class TestValidate:
    def test_violation_rendering(self, tmp_path, capsys):
        g_path = gr(tmp_path, complete_graph(3))
        # single-bag decomposition missing vertex 3: edge (1,3) uncovered
        td_path = write(tmp_path / "bad.td", "s td 1 2 3\nb 1 1 2\n")
        assert main(["validate", g_path, td_path]) == 1
        out = capsys.readouterr().out
        assert "(tw-1) vertex 3" in out
        assert "(tw-2) edge 1 3" in out

    def test_path_kind(self, tmp_path, capsys):
        g = path_graph(3)
        g_path = gr(tmp_path, g)
        td_path = write(tmp_path / "p.td", "s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n")
        assert main(["validate", g_path, td_path, "--kind", "path"]) == 0
        assert capsys.readouterr().out == "valid width 1\n"

    def test_non_ascii_td(self, tmp_path, capsys):
        g_path = gr(tmp_path, path_graph(2))
        bad = tmp_path / "bad.td"
        bad.write_bytes(b"s td 1 2 2\nb 1 1 2 \xff\n")
        assert main(["validate", g_path, str(bad)]) == 2
        assert "not ASCII text" in capsys.readouterr().err

    def test_malformed_td(self, tmp_path):
        g_path = gr(tmp_path, path_graph(2))
        td_path = write(tmp_path / "bad.td", "b 1 1 2\n")
        assert main(["validate", g_path, td_path]) == 2


class TestApply:
    def test_empty_script_copies_graph(self, tmp_path):
        g = grid_graph(2, 3)
        g_path = gr(tmp_path, g)
        s_path = write(tmp_path / "noop.ops", "# nothing\n")
        out = str(tmp_path / "out.gr")
        assert main(["apply", g_path, s_path, out]) == 0
        assert read_gr(out) == g

    def test_spider_from_caterpillar_by_letters(self, tmp_path):
        g_path = gr(tmp_path, caterpillar_example())
        s_path = write(tmp_path / "s.ops", "subdiv c f\n")
        out = str(tmp_path / "out.gr")
        assert main(["apply", g_path, s_path, out]) == 0
        assert is_isomorphic(read_gr(out), incidence_star_example())

    def test_carry_pipeline_prints_claim_and_validates(self, tmp_path, capsys):
        g = path_graph(5)
        g_path = gr(tmp_path, g)
        td_path = write(tmp_path / "in.td", format_td(exact_treewidth(g).certificate))
        s_path = write(tmp_path / "s.ops", "subdiv 2 3\nadde 1 5\n")
        out = str(tmp_path / "out.gr")
        cout = str(tmp_path / "out.td")
        code = main([
            "apply", g_path, s_path, out,
            "--carry", td_path, "--carry-out", cout,
        ])
        assert code == 0
        assert capsys.readouterr().out == "claimed 2\n"
        g2 = read_gr(out)
        d2 = read_td(cout, g2)
        assert main(["validate", out, cout]) == 0

    def test_carry_path_kind(self, tmp_path, capsys):
        g = path_graph(4)
        g_path = gr(tmp_path, g)
        td_path = write(
            tmp_path / "in.td", format_td(exact_pathwidth(g).certificate)
        )
        s_path = write(tmp_path / "s.ops", "delv 1\n")
        out = str(tmp_path / "out.gr")
        code = main([
            "apply", g_path, s_path, out, "--carry", td_path, "--kind", "path",
        ])
        assert code == 0
        assert capsys.readouterr().out == "claimed 1\n"

    def test_carry_through_transformerless_op_fails(self, tmp_path):
        g = path_graph(3)
        g_path = gr(tmp_path, g)
        td_path = write(tmp_path / "in.td", format_td(exact_treewidth(g).certificate))
        s_path = write(tmp_path / "s.ops", "complement\n")
        assert main(["apply", g_path, s_path, str(tmp_path / "o.gr"),
                     "--carry", td_path]) == 2

    def test_carry_rejects_invalid_input_decomposition(self, tmp_path, capsys):
        g_path = gr(tmp_path, complete_graph(3))
        td_path = write(tmp_path / "in.td", "s td 1 2 3\nb 1 1 2\n")
        s_path = write(tmp_path / "s.ops", "delv 1\n")
        assert main(["apply", g_path, s_path, str(tmp_path / "o.gr"),
                     "--carry", td_path]) == 1
        assert "(tw-1) vertex 3" in capsys.readouterr().out

    def test_binary_op_needs_graph2(self, tmp_path):
        g_path = gr(tmp_path, path_graph(2))
        s_path = write(tmp_path / "s.ops", "join\n")
        assert main(["apply", g_path, s_path, str(tmp_path / "o.gr")]) == 2

    def test_join_with_carry(self, tmp_path, capsys):
        g = complete_graph(2)
        g_path = gr(tmp_path, g)
        h_path = gr(tmp_path, complete_graph(1), "h.gr")
        td_path = write(tmp_path / "in.td", format_td(exact_treewidth(g).certificate))
        s_path = write(tmp_path / "s.ops", "join\n")
        out = str(tmp_path / "out.gr")
        code = main(["apply", g_path, s_path, out,
                     "--graph2", h_path, "--carry", td_path])
        assert code == 0
        assert capsys.readouterr().out == "claimed 2\n"
        assert is_isomorphic(read_gr(out), complete_graph(3))

    def test_product_pipeline(self, tmp_path):
        g_path = gr(tmp_path, path_graph(3))
        h_path = gr(tmp_path, path_graph(3), "h.gr")
        s_path = write(tmp_path / "s.ops", "prod cartesian\n")
        out = str(tmp_path / "out.gr")
        assert main(["apply", g_path, s_path, out, "--graph2", h_path]) == 0
        assert is_isomorphic(read_gr(out), grid_graph(3, 3))

    def test_product_carry_limited_to_lexicographic(self, tmp_path):
        g = path_graph(3)
        g_path = gr(tmp_path, g)
        h_path = gr(tmp_path, path_graph(2), "h.gr")
        td_path = write(tmp_path / "in.td", format_td(exact_treewidth(g).certificate))
        s_path = write(tmp_path / "s.ops", "prod cartesian\n")
        assert main(["apply", g_path, s_path, str(tmp_path / "o.gr"),
                     "--graph2", h_path, "--carry", td_path]) == 2

    def test_carry_out_needs_carry(self, tmp_path):
        g_path = gr(tmp_path, path_graph(2))
        s_path = write(tmp_path / "s.ops", "inci\n")
        assert main(["apply", g_path, s_path, str(tmp_path / "o.gr"),
                     "--carry-out", str(tmp_path / "o.td")]) == 2

    def test_undecodable_script(self, tmp_path, capsys):
        g_path = gr(tmp_path, path_graph(3))
        s_path = tmp_path / "s.ops"
        s_path.write_bytes(b"delv 1\xff\n")
        assert main(["apply", g_path, str(s_path), str(tmp_path / "o.gr")]) == 2
        assert "not UTF-8 text" in capsys.readouterr().err

    def test_huge_power_finishes(self, tmp_path, capsys):
        g = cycle_graph(4)
        g_path = gr(tmp_path, g)
        td_path = write(tmp_path / "in.td", format_td(exact_treewidth(g).certificate))
        s_path = write(tmp_path / "s.ops", "power 1000000000\n")
        out = str(tmp_path / "out.gr")
        start = time.perf_counter()
        assert main(["apply", g_path, s_path, out, "--carry", td_path]) == 0
        assert time.perf_counter() - start < 2.0
        assert read_gr(out) == complete_graph(4)
        # Delta = 2: the degree bound 2d keeps growing with d
        assert capsys.readouterr().out == "claimed 6000000002\n"

    def test_script_errors_exit_2(self, tmp_path):
        g_path = gr(tmp_path, path_graph(3))
        s_path = write(tmp_path / "s.ops", "adde 1 2\n")
        assert main(["apply", g_path, s_path, str(tmp_path / "o.gr")]) == 2


class TestHarnessCommand:
    def test_tap_output_and_exit(self, tmp_path, capsys):
        code = main([
            "harness", "run", "--suite", "relations",
            "--max-n", "4", "--samples", "3", "--seed", "2",
            "--witness-dir", str(tmp_path / "w"),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("1..30\n")
        assert "\nok relations/" in out
        assert "not ok" not in out

    def test_capability_guard(self, tmp_path):
        assert main([
            "harness", "run", "--suite", "relations",
            "--max-n", "13", "--samples", "1",
            "--witness-dir", str(tmp_path / "w"),
        ]) == 3
