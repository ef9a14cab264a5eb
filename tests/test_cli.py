import resource
import subprocess
import sys
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

    def test_extra_tree_edge_lines_exit_2(self, tmp_path):
        g_path = gr(tmp_path, path_graph(3))
        td_path = write(tmp_path / "extra.td",
                        "s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n1 2\n2 1\n")
        out = subprocess.run(
            [sys.executable, "-m", "twpw.cli", "validate", g_path, td_path],
            capture_output=True, text=True,
        )
        assert out.returncode == 2
        assert out.stdout == ""
        assert "2 bags need 1 tree edges, file has 3" in out.stderr


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
        # Delta = 2: the degree bound 2 * min(d, n - 1) = 6 gives (2 + 1) * 7 - 1
        assert capsys.readouterr().out == "claimed 20\n"

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


class TestSizeGuards:
    """Oversized headers and generator arguments exit 3 before anything is
    allocated.  Each probe runs in a child whose address space is capped,
    so an allocation at the refused size would end in MemoryError, exit 1."""

    CAP = 1 << 30

    def run_capped(self, *argv):
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (self.CAP, self.CAP))

        return subprocess.run([sys.executable, "-m", "twpw.cli", *argv],
                              capture_output=True, text=True, preexec_fn=cap,
                              timeout=60)

    def test_header_vertex_count(self, tmp_path):
        g_path = write(tmp_path / "big.gr", "p tw 300000000 0\n")
        out = self.run_capped("width", g_path, "--param", "tw")
        assert out.returncode == 3
        assert out.stdout == ""
        assert out.stderr == (
            "error: graphs support at most 100000 vertices, got 300000000\n"
        )

    def test_complete_graph_edge_count(self, tmp_path):
        out_path = tmp_path / "k.gr"
        out = self.run_capped("gen", "complete", "50000", str(out_path))
        assert out.returncode == 3
        assert out.stderr == (
            "error: graphs support at most 1000000 edges, got 1249975000\n"
        )
        assert not out_path.exists()

    def test_grid_vertex_count(self, tmp_path):
        out_path = tmp_path / "grid.gr"
        out = self.run_capped("gen", "grid", "100000", "100000", str(out_path))
        assert out.returncode == 3
        assert out.stderr == (
            "error: graphs support at most 100000 vertices, got 10000000000\n"
        )
        assert not out_path.exists()


TD_HEAD = "s td 2 2 3\nb 1 1 2\nb 2 2 3\n"


class TestValidateTdMessages:
    """Every .td error message, as `twpw validate` prints it, on path_graph(3)."""

    @pytest.mark.parametrize("kind, text, message", [
        ("tree", "b 1 1 2\n", "missing 's td <bags> <maxbagsize> <n>' header"),
        ("tree", "s td 1 x 3\nb 1 1\n", "non-numeric header fields"),
        ("tree", "s td 1 2 4\nb 1 1 2\n", "header announces 4 vertices, graph has 3"),
        ("tree", "s td 0 0 3\n", "decomposition needs at least one bag"),
        ("tree", "s td 1 2 3\nb\n", "bag line without an id"),
        ("tree", "s td 1 2 3\nb 1 x\n", "non-numeric bag line: 'b 1 x'"),
        ("tree", "s td 1 2 3\nb 2 1 2\n", "bag id 2 out of range 1..1"),
        ("tree", "s td 2 2 3\nb 1 1 2\nb 1 2 3\n", "duplicate bag id 1"),
        ("tree", "s td 1 3 3\nb 1 2 5 0 4\n", "bag 1 holds out-of-range vertex 5"),
        ("tree", "s td 1 3 3\nb 1 3 -1 9\n", "bag 1 holds out-of-range vertex -1"),
        ("tree", TD_HEAD + "1 2 3\n", "bad tree edge line: '1 2 3'"),
        ("tree", TD_HEAD + "1 x\n", "non-numeric tree edge: '1 x'"),
        ("tree", TD_HEAD + "1 3\n", "tree edge (1, 3) out of range 1..2"),
        ("tree", "s td 2 2 3\nb 1 1 2\n1 2\n", "header announces 2 bags, file has 1"),
        ("tree", TD_HEAD, "2 bags need 1 tree edges, file has 0"),
        ("tree", "s td 1 2 3\nb 1 1 2 3\n", "header max bag size disagrees with the bags"),
        ("tree", "s td 4 1 3\nb 1 1\nb 2 2\nb 3 3\nb 4\n1 2\n2 3\n3 1\n",
         "decomposition nodes must form a tree"),
        ("path", "s td 4 1 3\nb 1 1\nb 2 2\nb 3 3\nb 4\n1 2\n2 3\n3 1\n",
         "decomposition nodes must form a tree"),
        ("path", "s td 4 2 3\nb 1 2\nb 2 1 2\nb 3 2 3\nb 4 2\n1 2\n1 3\n1 4\n",
         "decomposition tree is not path-shaped"),
        ("tree", TD_HEAD + "2 2\n", "tree edge loop at bag 2"),
        ("path", TD_HEAD + "2 2\n", "tree edge loop at bag 2"),
        ("tree", "s td 3 2 3\nb 1 1 2\nb 2 2 3\nb 3 3\n1 2\n2 1\n",
         "duplicate tree edge (2, 1)"),
        ("path", "s td 3 2 3\nb 1 1 2\nb 2 2 3\nb 3 3\n1 2\n2 1\n",
         "duplicate tree edge (2, 1)"),
    ])
    def test_message_and_exit_2(self, tmp_path, capsys, kind, text, message):
        g_path = gr(tmp_path, path_graph(3))
        td_path = write(tmp_path / "bad.td", text)
        assert main(["validate", g_path, td_path, "--kind", kind]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
