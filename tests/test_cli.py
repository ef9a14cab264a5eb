import decimal
import re
import resource
import subprocess
import sys
import time

import pytest

from twpw import cli
from twpw.cli import apply_opscript, main, parse_opscript
from twpw.decomposition import TreeDecomposition
from twpw.errors import ScriptError
from twpw.fileformats import format_gr, format_td, parse_gr, read_gr, read_td
from twpw.exact import exact_pathwidth, exact_treewidth
from twpw.graphs import (
    Graph,
    caterpillar_example,
    complete_graph,
    cycle_graph,
    grid_graph,
    incidence_star_example,
    path_graph,
    star_graph,
)
from twpw.harness import SplitMix64, random_graph
from twpw.minors import parse_minor_script, replay_lower_witness

from smallgraphs import is_isomorphic


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

    @pytest.mark.parametrize("token", ["1_0", "+3", "\u0663", "1.0", "0x1"])
    def test_numerals_are_ascii_digits_only(self, token):
        with pytest.raises(ScriptError, match=re.escape(f"line 2: bad argument {token!r}")):
            parse_opscript(f"inci\ndelv {token}\n")

    def test_numerals_keep_their_value(self):
        s = parse_opscript("delv 10\ndelv 007\ndelv -2\ndelv Z\n")
        assert [args for _, _, args in s.lines] == [(10,), (7,), (-2,), (26,)]

    def test_letter_alias_is_ascii_only(self):
        with pytest.raises(ScriptError, match="bad argument"):
            parse_opscript("delv \u00e9\n")


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

    def test_width_cert_writes_the_lower_witness_of_the_bounds(self, tmp_path, capsys):
        # the peel removes P4 whole, and its witness is a peeled edge; C9
        # is settled by the plain bounds; the 9-vertex graph of seed 75
        # needs the 5-improved graph, so its witness adds edges
        improvable = random_graph(SplitMix64(75), 9, 5)
        for g, value in ((path_graph(4), 1), (cycle_graph(9), 2), (improvable, 5)):
            g_path = gr(tmp_path, g)
            td_path = tmp_path / "g.td"
            assert main(["width", g_path, "--param", "tw", "--cert", str(td_path)]) == 0
            assert capsys.readouterr().out == f"{value}\n"
            text = (tmp_path / "g.td.witness").read_text()
            script = parse_minor_script(text)
            assert exact_treewidth(g).lower_witness == script
            minor = replay_lower_witness(read_gr(g_path), script, value)
            assert min(map(minor.degree, minor.vertices)) >= value
        assert "\na " in "\n" + text

    @pytest.mark.parametrize("g, param", [(cycle_graph(9), "pw"), (cycle_graph(8), "tw")],
                             ids=["path-width", "subset-DP"])
    def test_width_cert_writes_no_witness_without_the_bounds(self, tmp_path, capsys, g, param):
        td_path = tmp_path / "g.td"
        assert main(["width", gr(tmp_path, g), "--param", param, "--cert", str(td_path)]) == 0
        assert capsys.readouterr().out == "2\n"
        assert td_path.exists()
        assert not (tmp_path / "g.td.witness").exists()

    def test_width_of_edgeless_graph(self, tmp_path, capsys):
        g_path = str(tmp_path / "i.gr")
        assert main(["gen", "isolated", "4", g_path]) == 0
        assert main(["width", g_path, "--param", "pw"]) == 0
        assert capsys.readouterr().out == "0\n"

    def test_gen_rejects_bad_params(self, tmp_path):
        assert main(["gen", "cycle", "three", str(tmp_path / "x.gr")]) == 2

    @pytest.mark.parametrize("token", ["1_0", "+3", "\u0663"])
    def test_gen_params_are_numerals(self, tmp_path, capsys, token):
        out = tmp_path / "x.gr"
        assert main(["gen", "path", token, str(out)]) == 2
        assert capsys.readouterr().err == (
            "error: generator parameters must be integers, followed by the output path\n")
        assert not out.exists()

    @pytest.mark.parametrize("token, code, first_line", [
        ("3", 0, "p tw 3 2"), ("03", 0, "p tw 3 2"), ("-1", 2, None), ("-0", 2, None),
    ])
    def test_gen_plain_and_negative_numerals(self, tmp_path, capsys, token, code, first_line):
        out = tmp_path / "x.gr"
        assert main(["gen", "path", token, str(out)]) == code
        if first_line is None:
            assert capsys.readouterr().err == "error: path needs n >= 1\n"
            assert not out.exists()
        else:
            assert out.read_text().splitlines()[0] == first_line

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

    def test_result_too_large_to_read_back_exits_3(self, tmp_path, capsys, monkeypatch):
        # K10 has 45 edges; the line after complement must not run
        monkeypatch.setattr("twpw.graphs.GRAPH_MAX_EDGES", 44)
        ran = []
        monkeypatch.setattr("twpw.unary.delete_vertex", lambda *a: ran.append(a))
        g_path = write(tmp_path / "g.gr", "p tw 10 0\n")
        s_path = write(tmp_path / "s.ops", "complement\ndelv 1\n")
        out = tmp_path / "out.gr"
        assert main(["apply", g_path, s_path, str(out)]) == 3
        assert capsys.readouterr().err == "error: graphs support at most 44 edges, got 45\n"
        assert ran == [] and not out.exists()
        monkeypatch.setattr("twpw.graphs.GRAPH_MAX_EDGES", 45)
        s_path = write(tmp_path / "s.ops", "complement\n")
        assert main(["apply", g_path, s_path, str(out)]) == 0
        assert read_gr(str(out)) == complete_graph(10)

    @staticmethod
    def spy_on_graph(monkeypatch, module):
        """The list of every Graph that module builds from now on."""
        built = []

        class Spy(Graph):
            __slots__ = ()

            def __init__(self, *args):
                built.append(len(args))
                super().__init__(*args)

        monkeypatch.setattr(f"twpw.{module}.Graph", Spy)
        return built

    @pytest.mark.parametrize("module, script, n1, n2, err", [
        ("unary", "complement", 1500, None, "at most 1000000 edges, got 1124250"),
        ("binary", "join", 1001, 1000, "at most 1000000 edges, got 1001000"),
        ("binary", "corona", 1000, 100, "at most 100000 vertices, got 101000"),
        # C(1500, 2) pairs of the edgeless factors' vertices, each an edge
        ("binary", "prod rejection", 1500, 1, "at most 1000000 edges, got 1124250"),
        ("binary", "prod cartesian", 400, 300, "at most 100000 vertices, got 120000"),
    ])
    def test_oversized_result_refused_before_it_is_built(
            self, tmp_path, capsys, monkeypatch, module, script, n1, n2, err):
        built = self.spy_on_graph(monkeypatch, module)
        argv = ["apply", write(tmp_path / "g.gr", f"p tw {n1} 0\n"),
                write(tmp_path / "s.ops", script + "\n"), str(tmp_path / "out.gr")]
        if n2 is not None:
            argv += ["--graph2", write(tmp_path / "h.gr", f"p tw {n2} 0\n")]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: graphs support {err}\n"
        assert built == [] and not (tmp_path / "out.gr").exists()

    def test_oversized_line_graph_refused_before_it_is_built(
            self, tmp_path, capsys, monkeypatch):
        # the centre's 1415 edges pairwise share it: C(1415, 2) = 1000405
        g_path = gr(tmp_path, star_graph(1415))
        built = self.spy_on_graph(monkeypatch, "unary")
        out = tmp_path / "out.gr"
        argv = ["apply", g_path, write(tmp_path / "s.ops", "linegraph\n"), str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "error: graphs support at most 1000000 edges, got 1000405\n")
        assert built == [] and not out.exists()

    def test_oversized_power_refused_before_it_is_built(
            self, tmp_path, capsys, monkeypatch):
        # every pair of P1500's vertices is within distance 1499: C(1500, 2)
        g_path = gr(tmp_path, path_graph(1500))
        built = self.spy_on_graph(monkeypatch, "unary")
        out = tmp_path / "out.gr"
        argv = ["apply", g_path, write(tmp_path / "s.ops", "power 1499\n"), str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            "error: graphs support at most 1000000 edges, got 1124250\n")
        assert built == [] and not out.exists()

    def test_claim_of_more_than_4300_digits_prints_in_full(self, tmp_path, capsys):
        # 3,600 disjoint claws, width 1; power 14399 gives 3,600 disjoint K4
        # and claims 2 * (1 + 3 * (2^14399 - 1)) - 1, a 4,336-digit number
        # that str() refuses at Python's default int-to-str limit
        edges = [(4 * i, 4 * i + j) for i in range(3600) for j in (1, 2, 3)]
        g = Graph(range(14400), edges)
        td = TreeDecomposition(g, path_graph(len(edges)), dict(enumerate(edges)))
        out = tmp_path / "out.gr"
        assert main(["apply", gr(tmp_path, g), write(tmp_path / "s.ops", "power 14399\n"),
                     str(out), "--carry", write(tmp_path / "g.td", format_td(td))]) == 0
        claim = 6 * 2 ** 14399 - 5
        printed = capsys.readouterr().out
        assert printed.startswith("claimed 2037317970871950738924") and printed.endswith("\n")
        digits = printed.removeprefix("claimed ").removesuffix("\n")
        assert len(digits) == 4336 and digits.isdigit()
        assert digits[-18:] == str(claim % 10 ** 18) and int(decimal.Decimal(digits)) == claim
        assert read_gr(str(out)).m == 3600 * 6

    def test_script_errors_exit_2(self, tmp_path):
        g_path = gr(tmp_path, path_graph(3))
        s_path = write(tmp_path / "s.ops", "adde 1 2\n")
        assert main(["apply", g_path, s_path, str(tmp_path / "o.gr")]) == 2


EMPTY_TD = "s td 1 0 0\nb 1\n"


class TestEmptyGraph:
    """The width of the empty graph is -1; the commands print it as words
    where they print a width, and as -1 where they print a claim."""

    @pytest.fixture
    def empty(self, tmp_path):
        path = tmp_path / "e.gr"
        assert main(["gen", "empty", str(path)]) == 0
        assert path.read_text() == "p tw 0 0\n"
        return str(path)

    @pytest.mark.parametrize("param", ["tw", "pw"])
    def test_width_is_undefined_with_one_empty_bag(self, tmp_path, capsys, empty, param):
        cert = tmp_path / "e.td"
        assert main(["width", empty, "--param", param, "--cert", str(cert)]) == 0
        assert capsys.readouterr().out == "undefined\n"
        assert cert.read_text() == EMPTY_TD

    @pytest.mark.parametrize("kind", ["tree", "path"])
    def test_validate_prints_valid(self, tmp_path, capsys, empty, kind):
        td_path = write(tmp_path / "e.td", EMPTY_TD)
        flags = [] if kind == "tree" else ["--kind", kind]
        assert main(["validate", empty, td_path, *flags]) == 0
        assert capsys.readouterr().out == "valid\n"

    @pytest.mark.parametrize("kind", ["tree", "path"])
    @pytest.mark.parametrize("script, claimed", [("addv\n", 0), ("# nothing\n", -1)])
    def test_apply_carry_claims(self, tmp_path, capsys, empty, kind, script, claimed):
        td_path = write(tmp_path / "e.td", EMPTY_TD)
        s_path = write(tmp_path / "s.ops", script)
        out = str(tmp_path / "o.gr")
        cout = str(tmp_path / "o.td")
        assert main(["apply", empty, s_path, out, "--carry", td_path,
                     "--carry-out", cout, "--kind", kind]) == 0
        assert capsys.readouterr().out == f"claimed {claimed}\n"
        assert main(["validate", out, cout, "--kind", kind]) == 0


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

    @pytest.mark.parametrize("suite, row", [
        ("unary", "delete-edge"), ("binary", "substitute-neighbors"), ("all", "delete-edge"),
    ])
    def test_rows_needing_two_vertices_refuse_max_n_1(self, tmp_path, capsys, monkeypatch,
                                                      suite, row):
        ran = []
        monkeypatch.setattr(cli, "run_suite", lambda name, *rest: ran.append(name) or [])
        code = main([
            "harness", "run", "--suite", suite, "--max-n", "1", "--samples", "2",
            "--witness-dir", str(tmp_path / "w"),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: row {row} needs max_n >= 2, got 1\n"
        assert ran == []  # refused before any suite ran

    @pytest.mark.parametrize("suite", ["relations", "ng", "logbound"])
    def test_suites_without_rows_run_at_max_n_1(self, tmp_path, capsys, suite):
        code = main([
            "harness", "run", "--suite", suite, "--max-n", "1", "--samples", "2",
            "--witness-dir", str(tmp_path / "w"),
        ])
        assert code == 0
        assert "not ok" not in capsys.readouterr().out

    @pytest.mark.parametrize("option", ["--max-n", "--samples", "--seed"])
    @pytest.mark.parametrize("token", ["1_0", "+3", "\u0663"])
    def test_integer_options_are_numerals(self, tmp_path, capsys, option, token):
        with pytest.raises(SystemExit) as exc:
            main(["harness", "run", "--suite", "ng", option, token,
                  "--witness-dir", str(tmp_path / "w")])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument {option}: invalid int value: {token!r}\n")

    def test_integer_options_keep_plain_and_negative_numerals(self, tmp_path, capsys):
        argv = ["harness", "run", "--suite", "ng", "--samples", "2",
                "--witness-dir", str(tmp_path / "w")]
        assert main([*argv, "--max-n", "4", "--seed", "-1"]) == 0
        plain = capsys.readouterr().out
        assert plain.startswith("1..")
        assert main([*argv, "--max-n", "04", "--seed", "-01"]) == 0
        assert capsys.readouterr().out == plain
        assert main([*argv, "--max-n", "-1"]) == 2
        assert capsys.readouterr().err == "error: sweep needs max_n >= 1 and samples >= 0\n"

    def test_capability_guard(self, tmp_path):
        assert main([
            "harness", "run", "--suite", "relations",
            "--max-n", "13", "--samples", "1",
            "--witness-dir", str(tmp_path / "w"),
        ]) == 3


class TestRepeatedCalls:
    """main builds its parser once per process, and calls in one process
    print and return what the same calls in fresh processes do."""

    @staticmethod
    def in_process(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse ends a usage error this way
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @staticmethod
    def fresh(argv):
        out = subprocess.run([sys.executable, "-m", "twpw.cli", *argv],
                             capture_output=True, text=True, timeout=120)
        return out.returncode, out.stdout, out.stderr

    def test_interleaved_calls_match_fresh_runs(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # usage lines wrap at the same width
        g_path = gr(tmp_path, cycle_graph(7))
        harness = ["harness", "run", "--suite", "relations", "--max-n", "4",
                   "--samples", "3", "--seed", "2", "--witness-dir", str(tmp_path / "w")]
        grid = tmp_path / "grid.gr"
        calls = [
            harness,
            ["width", g_path, "--param", "pw"],
            ["gen", "grid", "2", "3", str(grid)],
            ["width", g_path],  # no --param: usage error
            harness,
        ]

        def outcomes(run):
            """Each call's exit code, stdout and stderr; gen's also its file."""
            results = []
            for argv in calls:
                results.append(run(argv))
                if argv[0] == "gen":
                    results[-1] += (grid.read_text(),)
                    grid.unlink()
            return results

        cli._build_parser.cache_clear()
        got = outcomes(lambda argv: self.in_process(argv, capsys))
        assert cli._build_parser.cache_info().misses == 1
        assert got == outcomes(self.fresh)
        codes = [result[0] for result in got]
        assert codes == [0, 0, 0, 2, 0]
        assert got[3][2].endswith("error: the following arguments are required: --param\n")
        assert got[0] == got[4]

        ran = []
        run_suite = cli.run_suite
        monkeypatch.setattr(cli, "run_suite", lambda name, *rest: ran.append(name)
                            or run_suite(name, *rest))
        assert self.in_process(harness, capsys) == got[0]
        assert ran == ["relations"]
        assert cli._build_parser.cache_info().misses == 1


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
