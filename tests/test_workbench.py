import ast
import json
import random
from pathlib import Path

import pytest

from npnmatch.boolfn import MAX_VARS, TruthTable, count_minterms, negate
from npnmatch import matcher
from npnmatch.matcher import BudgetExceededError, match_npn
from npnmatch.workbench import (
    ParseError,
    cli_dispatch,
    parse_function,
    serialize_function,
)

from cases import CASE5_F, CASE5_G, CASE7_F, CASE7_G, TRIO_A
from test_boolfn import random_table


class TestHexFormat:
    def test_and_function(self):
        f = parse_function("vars=2\ntt=8\n")
        assert f == TruthTable.from_minterms(2, [3])

    def test_comments_and_blank_lines(self):
        f = parse_function("# and gate\n\nvars=2\n\ntt=8\n")
        assert f.bits == 8

    def test_round_trip(self):
        rng = random.Random(5)
        for n in (0, 1, 2, 3, 6, 9):
            f = random_table(rng, n)
            assert parse_function(serialize_function(f)) == f

    def test_comment_only_file(self):
        with pytest.raises(ParseError, match="empty function file") as err:
            parse_function("# nothing\n\n  # here\n")
        assert (err.value.line, err.value.col) == (1, 1)

    def test_line_without_equals(self):
        with pytest.raises(ParseError, match="expected key=value") as err:
            parse_function("vars 3\ntt=00\n")
        assert (err.value.line, err.value.col) == (1, 1)

    @pytest.mark.parametrize(
        "text, col", [("vars=0\ntt=f\n", 4), ("vars=1\ntt=  c\n", 6)], ids=["vars0", "blank"]
    )
    def test_too_wide_value_column(self, text, col):
        # the digit count is right, but the value has bits above 2^n
        with pytest.raises(ParseError, match="does not fit 2\\^n bits") as err:
            parse_function(text)
        assert (err.value.line, err.value.col) == (2, col)

    def test_wrong_digit_count(self):
        with pytest.raises(ParseError, match="4 hex digits"):
            parse_function("vars=4\ntt=ff\n")

    def test_bad_hex_digit_position(self):
        with pytest.raises(ParseError) as err:
            parse_function("vars=3\ntt=0g\n")
        assert err.value.line == 2
        assert err.value.col == 5

    def test_indented_vars_column(self):
        with pytest.raises(ParseError, match="bad variable count") as err:
            parse_function("  vars=+2\ntt=0\n")
        assert (err.value.line, err.value.col) == (1, 8)

    def test_indented_tt_column(self):
        with pytest.raises(ParseError, match="bad hex digit") as err:
            parse_function("vars=2\n  tt=0g\n")
        assert (err.value.line, err.value.col) == (2, 7)

    def test_rejects_int_literal_syntax(self):
        # int(..., 16) accepts all of these, and each has the expected length
        for tt, col in (("0x12", 5), ("1_23", 5), ("+123", 4), ("-123", 4)):
            with pytest.raises(ParseError, match="bad hex digit") as err:
                parse_function(f"vars=4\ntt={tt}\n")
            assert (err.value.line, err.value.col) == (2, col), tt

    @pytest.mark.parametrize(
        "raw, col",
        [("+2", 6), ("0_2", 7), ("\uff12", 6), (" +2", 7)],
        ids=["sign", "underscore", "fullwidth", "blank"],
    )
    def test_vars_takes_ascii_digits_only(self, raw, col):
        # int() reads each of these as 2
        with pytest.raises(ParseError, match="bad variable count") as err:
            parse_function(f"vars={raw}\ntt=8\n")
        assert (err.value.line, err.value.col) == (1, col)

    def test_repeated_field(self):
        with pytest.raises(ParseError, match="repeated vars=") as err:
            parse_function("vars=2\nvars=3\ntt=00\n")
        assert err.value.line == 2

    def test_bad_vars(self):
        with pytest.raises(ParseError, match="out of range") as err:
            parse_function("vars=23\ntt=00\n")
        # the value's column, as the PLA .i 23 reports
        assert (err.value.line, err.value.col) == (1, 6)
        with pytest.raises(ParseError, match="variable count"):
            parse_function("vars=x\ntt=0\n")

    @pytest.mark.parametrize(
        "text, key, line", [("vars=2\ntt=6\nfoo=bar\n", "foo", 3), ("vars=2\n=x\ntt=6\n", "", 2)]
    )
    def test_unknown_key(self, text, key, line):
        with pytest.raises(ParseError, match=f"unknown key {key!r}") as err:
            parse_function(text)
        assert err.value.line == line

    def test_lines_end_at_newline_only(self):
        # str.splitlines would also break at the form feed: the first text
        # would parse as two lines, and the second's bad digit would be
        # reported on line 4
        with pytest.raises(ParseError, match="bad variable count") as err:
            parse_function("vars=3\x0ctt=96\n")
        assert (err.value.line, err.value.col) == (1, 7)
        with pytest.raises(ParseError, match="bad hex digit") as err:
            parse_function("vars=3\n\x0c\ntt=9z\n")
        assert (err.value.line, err.value.col) == (3, 5)

    def test_missing_fields(self):
        with pytest.raises(ParseError, match="missing tt"):
            parse_function("vars=2\n")
        with pytest.raises(ParseError, match="missing vars"):
            parse_function("tt=8\n")


class TestPLAFormat:
    def test_three_cube_cover(self):
        text = ".i 3\n.o 1\n.p 3\n10- 1\n-01 1\n010 1\n.e\n"
        f = parse_function(text)
        assert f == TRIO_A
        assert count_minterms(f) == 4

    def test_round_trip(self):
        rng = random.Random(9)
        for n in (1, 2, 4, 6):
            f = random_table(rng, n)
            assert parse_function(serialize_function(f, "pla")) == f
        # at n = 0 the constant-1 row is the output column alone
        for f in (TruthTable.constant(0, False), TruthTable.constant(0, True)):
            assert parse_function(serialize_function(f, "pla")) == f

    @pytest.mark.parametrize("raw, col", [("+2", 4), ("0_2", 5)], ids=["sign", "underscore"])
    def test_i_takes_ascii_digits_only(self, raw, col):
        with pytest.raises(ParseError, match="bad .i count") as err:
            parse_function(f".i {raw}\n.o 1\n10 1\n.e\n")
        assert (err.value.line, err.value.col) == (1, col)

    @pytest.mark.parametrize(
        "text",
        [".i\t2\n.o 1\n10 1\n.e\n", ".i 2\n.o\t1\n10 1\n.e\n", ".i 2\n.o 1\n.p\t1\n10 1\n.e\n"],
        ids=["i", "o", "p"],
    )
    def test_directive_takes_tab_before_value(self, text):
        assert parse_function(text) == TruthTable.from_minterms(2, [1])

    @pytest.mark.parametrize(
        "text, line",
        [(".i\n.o 1\n.e\n", 1), (".i 2\n.o\n10 1\n.e\n", 2), (".i 2\n.p\n10 1\n.e\n", 2)],
        ids=["i", "o", "p"],
    )
    def test_bare_directive_reports_missing_count(self, text, line):
        directive = text.splitlines()[line - 1]
        with pytest.raises(ParseError, match=f"missing {directive} count") as err:
            parse_function(text)
        assert (err.value.line, err.value.col) == (line, 3)

    @pytest.mark.parametrize(
        "raw, col", [("abc", 4), ("-3", 4), ("1x", 5)], ids=["word", "sign", "tail"]
    )
    def test_p_takes_ascii_digits_only(self, raw, col):
        with pytest.raises(ParseError, match="bad .p count") as err:
            parse_function(f".i 2\n.o 1\n.p {raw}\n10 1\n.e\n")
        assert (err.value.line, err.value.col) == (3, col)

    @pytest.mark.parametrize(
        "text, line, col",
        [(".i 2\n.o 1\n11 1\n.e\n10 1\n", 5, 1), (".i 2\n.o 1\n11 1\n.e extra\n", 4, 4)],
        ids=["later-line", "same-line"],
    )
    def test_text_after_e(self, text, line, col):
        with pytest.raises(ParseError, match="text after .e") as err:
            parse_function(text)
        assert (err.value.line, err.value.col) == (line, col)

    def test_comments_after_e(self):
        f = parse_function(".i 2\n.o 1\n11 1\n.e\n# end\n\n")
        assert f == TruthTable.from_minterms(2, [3])

    def test_column_convention(self):
        # leftmost input column is x0
        f = parse_function(".i 3\n.o 1\n100 1\n.e\n")
        assert f == TruthTable.from_minterms(3, [1])

    def test_bad_column_count(self):
        with pytest.raises(ParseError, match="3 input columns"):
            parse_function(".i 3\n.o 1\n10 1\n.e\n")

    def test_bad_character_position(self):
        with pytest.raises(ParseError) as err:
            parse_function(".i 3\n.o 1\n1x0 1\n.e\n")
        assert (err.value.line, err.value.col) == (3, 2)

    def test_indented_directive_column(self):
        with pytest.raises(ParseError, match="bad .i count") as err:
            parse_function("   .i x\n")
        assert (err.value.line, err.value.col) == (1, 7)

    def test_indented_row_column(self):
        with pytest.raises(ParseError, match="bad input character") as err:
            parse_function(".i 3\n.o 1\n   1x0 1\n.e\n")
        assert (err.value.line, err.value.col) == (3, 5)

    def test_indented_output_column(self):
        with pytest.raises(ParseError, match="'1' output") as err:
            parse_function(".i 2\n.o 1\n  10 0\n.e\n")
        assert (err.value.line, err.value.col) == (3, 6)

    def test_i_out_of_range_column(self):
        with pytest.raises(ParseError, match="out of range") as err:
            parse_function(".i 23\n.o 1\n.e\n")
        assert (err.value.line, err.value.col) == (1, 4)

    def test_indented_unknown_directive_column(self):
        with pytest.raises(ParseError, match="unsupported directive '.zz'") as err:
            parse_function(".i 2\n.o 1\n  .zz\n")
        assert (err.value.line, err.value.col) == (3, 3)

    def test_file_may_open_with_p(self):
        assert parse_function(".p 1\n.i 2\n.o 1\n11 1\n.e\n") == TruthTable.from_minterms(2, [3])

    def test_file_opening_with_unknown_directive(self):
        with pytest.raises(ParseError, match="unsupported directive '.type'") as err:
            parse_function(".type fr\n.i 2\n.o 1\n11 1\n.e\n")
        assert (err.value.line, err.value.col) == (1, 1)

    def test_three_field_cover_row(self):
        with pytest.raises(ParseError, match="input and output columns") as err:
            parse_function(".i 2\n.o 1\n10 1 1\n.e\n")
        assert (err.value.line, err.value.col) == (3, 1)

    def test_indented_three_field_cover_row(self):
        with pytest.raises(ParseError, match="input and output columns") as err:
            parse_function(".i 2\n.o 1\n  10 1 1\n.e\n")
        assert (err.value.line, err.value.col) == (3, 3)

    def test_indented_repeated_i_column(self):
        with pytest.raises(ParseError, match="repeated .i directive") as err:
            parse_function(".i 2\n  .i 3\n")
        assert (err.value.line, err.value.col) == (2, 3)

    @pytest.mark.parametrize(
        "text, match",
        [(".o 1\n  10 1\n", "cover line before .i"), (".i 3\n.o 1\n  10 1\n", "3 input columns")],
        ids=["before-i", "width"],
    )
    def test_indented_row_errors_report_the_row_column(self, text, match):
        with pytest.raises(ParseError, match=match) as err:
            parse_function(text)
        assert err.value.col == 3

    def test_missing_i_directive(self):
        with pytest.raises(ParseError, match="missing .i directive") as err:
            parse_function(".o 1\n.e\n")
        assert (err.value.line, err.value.col) == (1, 1)

    def test_rejects_zero_output_rows(self):
        with pytest.raises(ParseError, match="'1' output"):
            parse_function(".i 2\n.o 1\n10 0\n.e\n")

    def test_rejects_multi_output(self):
        with pytest.raises(ParseError, match="single-output"):
            parse_function(".i 2\n.o 2\n10 11\n.e\n")

    def test_repeated_declaration(self):
        with pytest.raises(ParseError, match="repeated .i") as err:
            parse_function(".i 2\n1- 1\n.i 3\n.e\n")
        assert err.value.line == 3

    def test_cover_before_declaration(self):
        with pytest.raises(ParseError, match="before .i"):
            parse_function(".o 1\n10 1\n.i 2\n.e\n")


@pytest.fixture
def files(tmp_path):
    def write(name, f, form="hex"):
        path = tmp_path / name
        path.write_text(serialize_function(f, form))
        return str(path)

    return write


class TestCLI:
    def test_match_example_pair(self, files, capsys):
        code = cli_dispatch(["match", files("f.tt", CASE7_F), files("g.tt", CASE7_G)])
        assert code == 0
        assert capsys.readouterr().out.strip() == (
            "T = {2->5-1, 0->0-1, 4->2-1, 1->3-0, 3->4-1, 5->6-0, 6->1-0}; output=pos"
        )

    def test_match_negated(self, files, capsys):
        rng = random.Random(2)
        f = random_table(rng, 5)
        while 2 * count_minterms(f) == 32:
            f = random_table(rng, 5)
        code = cli_dispatch(["match", files("a.tt", f), files("b.tt", negate(f))])
        assert code == 0
        assert capsys.readouterr().out.strip().endswith("output=neg")

    def test_match_non_equivalent_exit(self, files, capsys):
        f = TruthTable.from_minterms(3, [0])
        g = TruthTable.from_minterms(3, [0, 1, 2])
        assert cli_dispatch(["match", files("a.tt", f), files("b.tt", g)]) == 1
        assert capsys.readouterr().out.strip() == "non-equivalent"

    def test_match_json(self, files, capsys):
        code = cli_dispatch(
            ["match", files("f.tt", CASE7_F), files("g.tt", CASE7_G), "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "equivalent"
        assert payload["witness"]["perm"] == [0, 3, 5, 4, 2, 6, 1]
        assert payload["witness"]["output_pol"] == 0
        assert payload["nodes_visited"] > 0
        assert payload["verify_calls"] == 1
        assert payload["vectors_reused"] == 0  # CASE7 never branches
        assert payload["elapsed_s"] >= 0

    def test_match_json_counts_reused_vectors(self, files, capsys):
        # CASE5 branches once; both candidates leave f with the same cube and
        # identified variables, so the second takes f's vector from the first
        code = cli_dispatch(["match", files("f.tt", CASE5_F), files("g.tt", CASE5_G), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert (payload["nodes_visited"], payload["vectors_reused"]) == (6, 1)

    def test_node_cap_is_an_error_not_a_verdict(self, files, capsys):
        code = cli_dispatch(
            [
                "match",
                files("f.tt", CASE7_F),
                files("g.tt", CASE7_G),
                "--node-cap",
                "1",
            ]
        )
        assert code == 2
        assert "node budget" in capsys.readouterr().err

    def test_negative_node_cap_is_rejected_before_the_search(self, files, capsys, monkeypatch):
        # a cap of 0 visits the root and exceeds its budget there; a
        # negative cap is refused before the first count (the root split's
        # mask is its first call)
        with pytest.raises(BudgetExceededError, match="after 1 nodes"):
            match_npn(CASE7_F, CASE7_G, node_cap=0)

        def refuse(*args, **kwargs):
            raise AssertionError("search started")

        monkeypatch.setattr(matcher, "full_mask", refuse)
        with pytest.raises(ValueError, match="node cap -3 is negative"):
            match_npn(CASE7_F, CASE7_G, node_cap=-3)
        argv = ["match", files("f.tt", CASE7_F), files("g.tt", CASE7_G), "--node-cap", "-1"]
        assert cli_dispatch(argv) == 2
        assert capsys.readouterr().err == "error: node cap -1 is negative\n"

    def test_oracle(self, files, capsys):
        f = TruthTable(2, 0b0110)
        assert cli_dispatch(["oracle", files("a.tt", f), files("b.tt", negate(f))]) == 0
        assert "output=neg" in capsys.readouterr().out

    def test_oracle_non_equivalent_exit(self, files, capsys):
        f = TruthTable.from_minterms(3, [0])
        g = TruthTable.from_minterms(3, [0, 1, 2])
        assert cli_dispatch(["oracle", files("a.tt", f), files("b.tt", g)]) == 1
        assert capsys.readouterr().out.strip() == "non-equivalent"

    def test_classify(self, capsys):
        assert cli_dispatch(["classify", "--vars", "3"]) == 0
        assert capsys.readouterr().out.strip() == "14 classes"

    def test_gen_deterministic_and_parseable(self, capsys):
        argv = ["gen", "--vars", "6", "--kind", "type2", "--count", "3", "--seed", "4"]
        assert cli_dispatch(argv) == 0
        first = capsys.readouterr().out
        assert cli_dispatch(argv) == 0
        assert capsys.readouterr().out == first
        chunks = [c for c in first.strip().split("\n\n") if c]
        assert len(chunks) == 3
        for chunk in chunks:
            assert count_minterms(parse_function(chunk)) == 32

    def test_gen_equivalent_pairs(self, capsys):
        argv = [
            "gen", "--vars", "5", "--kind", "type1", "--count", "2",
            "--seed", "8", "--equivalent-pair",
        ]
        assert cli_dispatch(argv) == 0
        chunks = capsys.readouterr().out.strip().split("\n\n")
        assert len(chunks) == 2
        for chunk in chunks:
            lines = chunk.splitlines()
            f = parse_function("\n".join(lines[:2]))
            g = parse_function("\n".join(lines[2:]))
            assert match_npn(f, g).equivalent

    def test_gen_negative_count_exits_2(self, capsys):
        def gen(count):
            return cli_dispatch(["gen", "--vars", "4", "--kind", "type1", "--count", count, "--seed", "1"])

        assert gen("-2") == 2
        out, err = capsys.readouterr()
        assert out == "" and "count=-2 is negative" in err
        assert gen("0") == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("n", ["23", "-3"])
    @pytest.mark.parametrize("count", ["0", "1"])
    def test_gen_bad_vars_exits_2_at_any_count(self, n, count, capsys):
        # n is checked before the draw loop, so a count of 0 does not hide it
        argv = ["gen", "--vars", n, "--kind", "type1", "--count", count, "--seed", "1"]
        assert cli_dispatch(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"n={n} out of range [0, {MAX_VARS}]" in err

    def test_trace_reproduces_vector_dumps(self, files, capsys):
        assert cli_dispatch(["trace", files("f.tt", CASE7_F), files("g.tt", CASE7_G)]) == 0
        out = capsys.readouterr().out
        assert (
            "{(30, 16, 2, 0, 1),(30, 16, 2, 1, 1),(31, 15, -1, -1, 0),"
            "(16, 30, 2, 1, 1),(30, 16, 2, 0, 1),(24, 22, -1, -1, 2),"
            "(22, 24, -1, -1, 2)}"
        ) in out
        assert "cube_f=x2x0x4 cube_g=~x5~x0~x2" in out
        assert out.splitlines()[-1] == match_npn(CASE7_F, CASE7_G).witness_text()

    def test_unknown_flag_exits_2(self, capsys):
        assert cli_dispatch(["match", "--frobnicate"]) == 2

    def test_missing_file_exits_2(self, capsys):
        assert cli_dispatch(["match", "/nonexistent/a.tt", "/nonexistent/b.tt"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.tt"
        bad.write_text("vars=2\ntt=zz\n")
        good = tmp_path / "good.tt"
        good.write_text("vars=2\ntt=8\n")
        assert cli_dispatch(["match", str(bad), str(good)]) == 2


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    import npnmatch

    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as fh:
        assert npnmatch.__version__ == tomllib.load(fh)["project"]["version"]


def test_no_private_names_imported_across_modules():
    package = Path(__file__).resolve().parent.parent / "src" / "npnmatch"
    offenders = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [part for alias in node.names for part in alias.name.split(".")]
            else:
                continue
            offenders += [f"{path.name}: {name}" for name in names if name.startswith("_")]
    assert offenders == []
