"""Command-line behavior: exit codes, stream discipline, porcelain records."""

import argparse
import os
import random
import subprocess
import sys
import tracemalloc

import pytest

from nmshom import (
    FlowComplex,
    Incidence,
    IntegerMatrix,
    format_matrix,
    parse_matrix,
)
from nmshom import linalg
from nmshom.cli import (
    cmd_homology,
    cmd_seifert_emit,
    cmd_seifert_equiv,
    cmd_seifert_normalize,
    cmd_snf,
    cmd_validate,
    main,
)

from oracles import identity, multiply
from randgen import random_conjugated_flow

GOOD_FLOW = "format nmsflow 1\ndim 3\norbit a index 0\norbit b index 2\n"
EQUAL_INDEX_FLOW = (
    "format nmsflow 1\ndim 3\n"
    "orbit a index 0\norbit b index 1\norbit c index 1\norbit r index 2\n"
    "incidence b c 1\n"
)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestValidateCommand:
    def test_valid_file(self, tmp_path):
        result = cmd_validate(_write(tmp_path, "f.nms", GOOD_FLOW))
        assert result.exit_code == 0
        assert result.human_text == "valid"
        assert result.machine_lines == ("valid",)

    def test_violations_reported(self, tmp_path):
        result = cmd_validate(_write(tmp_path, "f.nms", EQUAL_INDEX_FLOW))
        assert result.exit_code == 1
        assert result.human_text == "invalid"
        assert result.machine_lines == ("violation equal-index-incidence b c",)
        assert "equal index" in result.diagnostics

    def test_boundary_square_failure_is_semantic(self, tmp_path):
        text = (
            "format nmsflow 1\ndim 4\n"
            "orbit a index 0\norbit b index 1\norbit c index 2\norbit r index 3\n"
            "incidence c b 1\nincidence b a 1\n"
        )
        result = cmd_validate(_write(tmp_path, "f.nms", text))
        assert result.exit_code == 1
        assert any("nonzero-boundary-square" in line for line in result.machine_lines)

    def test_parse_error_is_exit_two(self, tmp_path):
        result = cmd_validate(_write(tmp_path, "f.nms", "dim 3\n"))
        assert result.exit_code == 2
        assert "line 1" in result.diagnostics

    def test_missing_file_is_exit_two(self):
        result = cmd_validate("/no/such/file")
        assert result.exit_code == 2


class TestValidateStaysSparse:
    """validate checks d.d = 0 on the sparse rows and never densifies."""

    @staticmethod
    def _block_union(defect):
        rng = random.Random(809)
        orbits, incidences = [], []
        while len(orbits) < 2000:
            block, _ = random_conjugated_flow(rng, dim=4, prefix=f"b{len(orbits)}q")
            orbits += block.orbits
            incidences += block.incidences
        if defect:
            # An index-1 orbit hit from index 2 gains an incidence on an
            # attracting orbit of the first block: row a of d_1.d_2 turns nonzero.
            index = {o.id: o.index for o in orbits}
            lower = next(x.lower for x in reversed(incidences) if index[x.upper] == 2)
            target = next(o.id for o in orbits if o.index == 0)
            incidences.append(Incidence(lower, target, 1))
        return FlowComplex(4, orbits, incidences).serialize()

    @pytest.fixture
    def dense_work(self, monkeypatch):
        counts = {"IntegerMatrix": 0}
        init = IntegerMatrix.__init__

        def counting_init(self, *args, **kwargs):
            counts["IntegerMatrix"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(IntegerMatrix, "__init__", counting_init)
        return counts

    def test_counters_see_dense_work(self, dense_work):
        multiply(identity(2), identity(2))
        assert dense_work == {"IntegerMatrix": 3}

    def test_valid_union(self, tmp_path, dense_work):
        result = cmd_validate(_write(tmp_path, "f.nms", self._block_union(defect=False)))
        assert (result.exit_code, result.machine_lines) == (0, ("valid",))
        assert dense_work == {"IntegerMatrix": 0}

    def test_union_with_square_defect(self, tmp_path, dense_work):
        result = cmd_validate(_write(tmp_path, "f.nms", self._block_union(defect=True)))
        assert result.exit_code == 1
        assert result.machine_lines
        assert all(
            line.startswith("violation nonzero-boundary-square ") and " b0q0_" in line
            for line in result.machine_lines
        )
        assert dense_work == {"IntegerMatrix": 0}


class TestHomologyCommand:
    def test_from_file(self, tmp_path):
        result = cmd_homology(path=_write(tmp_path, "f.nms", GOOD_FLOW))
        assert result.exit_code == 0
        assert result.human_text == "H_0 = Z\nH_1 = 0\nH_2 = Z"
        assert result.machine_lines == ("homology 0 1", "homology 1 0", "homology 2 1")

    def test_from_invariants(self):
        result = cmd_homology(seifert="2;1/2,1/3,1/5")
        assert result.exit_code == 0
        assert result.human_text == "H_0 = Z\nH_1 = Z^4\nH_2 = Z"

    def test_torsion_record_format(self):
        result = cmd_homology(seifert="0;1/6,1/10,1/15")
        assert result.machine_lines[0] == "homology 0 1 30"

    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            cmd_homology()
        with pytest.raises(ValueError):
            cmd_homology(path="x", seifert="0;1/2")

    def test_invalid_invariants_exit_one(self):
        assert cmd_homology(seifert="0;2/4").exit_code == 1

    def test_unparseable_invariants_exit_two(self):
        assert cmd_homology(seifert="0;x").exit_code == 2


class TestSnfCommand:
    def test_divisors(self, tmp_path):
        path = _write(tmp_path, "m.txt", "rows 3 cols 2\n2 0\n-3 3\n0 -5\n")
        result = cmd_snf(path)
        assert result.exit_code == 0
        assert result.human_text == "elementary divisors: 1 1"
        assert result.machine_lines == ("snf 1 1",)

    def test_zero_matrix(self, tmp_path):
        path = _write(tmp_path, "m.txt", "rows 2 cols 2\n0 0\n0 0\n")
        result = cmd_snf(path)
        assert result.human_text == "elementary divisors: (none)"
        assert result.machine_lines == ("snf",)

    def test_witness_blocks_reparse_and_multiply(self, tmp_path):
        source = IntegerMatrix.from_rows([[6, 0], [-10, 10], [0, -15]])
        path = _write(tmp_path, "m.txt", format_matrix(source))
        result = cmd_snf(path, witness=True)
        blocks = result.human_text.split("\n")
        u_at = blocks.index("u =")
        s_at = blocks.index("s =")
        v_at = blocks.index("v =")
        u = parse_matrix("\n".join(blocks[u_at + 1 : s_at]))
        s = parse_matrix("\n".join(blocks[s_at + 1 : v_at]))
        v = parse_matrix("\n".join(blocks[v_at + 1 :]))
        assert multiply(multiply(u, source), v) == s

    def test_without_witness_computes_none(self, tmp_path, monkeypatch):
        def refuse(matrix):
            raise AssertionError("smith_normal_form called without --witness")

        monkeypatch.setattr("nmshom.cli.smith_normal_form", refuse)
        path = _write(tmp_path, "m.txt", "rows 2 cols 2\n4 0\n0 6\n")
        result = cmd_snf(path)
        assert result.exit_code == 0
        assert result.machine_lines == ("snf 2 12",)

    def test_malformed_matrix_exit_two(self, tmp_path):
        result = cmd_snf(_write(tmp_path, "m.txt", "rows 1 cols 1\nx\n"))
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "header", ["rows 100000 cols 0", "rows 0 cols 100000", "rows 1000000000000 cols 0"]
    )
    def test_entry_less_matrix_reduces_nothing(self, tmp_path, monkeypatch, header):
        # no entries, no divisors: the answer comes before any per-row
        # allocation, so the core never runs and the heap stays flat
        # (measured 5 kB traced peak for each header, Python 3.11.7)
        calls = []

        def counting(a, *args):
            calls.append(len(a))
            return isolate(a, *args)

        isolate = linalg._isolate_nonzeros
        monkeypatch.setattr(linalg, "_isolate_nonzeros", counting)
        path = _write(tmp_path, "m.txt", header + "\n")
        tracemalloc.start()
        try:
            result = cmd_snf(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (result.exit_code, result.machine_lines) == (0, ("snf",))
        assert result.human_text == "elementary divisors: (none)"
        assert calls == []
        assert peak < 10**5

    def test_entry_less_witness_in_bounded_heap(self, tmp_path):
        # u is the 3000 x 3000 identity: 18 MB of text.  Measured 37.2 MB
        # traced peak (Python 3.11.7); a dense copy of u costs 72 MB more, and
        # the heap peaked at 153.6 MB when the matrices were stored densely.
        path = _write(tmp_path, "m.txt", "rows 3000 cols 0\n")
        tracemalloc.start()
        try:
            result = cmd_snf(path, witness=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        lines = result.human_text.split("\n")
        assert lines[:3] == ["elementary divisors: (none)", "u =", "rows 3000 cols 3000"]
        assert lines[3] == " ".join(["1"] + ["0"] * 2999)
        assert lines[-4:] == ["s =", "rows 3000 cols 0", "v =", "rows 0 cols 0"]
        assert peak < 40 * 10**6


class TestSeifertCommands:
    def test_equiv_exit_codes(self):
        assert cmd_seifert_equiv("0;1/2,1/3", "0;1/2,1/3").exit_code == 0
        result = cmd_seifert_equiv("0;1/2,1/3", "0;3/2,1/3")
        assert result.exit_code == 1
        assert result.human_text == "inequivalent"
        assert result.machine_lines == ("equiv inequivalent",)

    def test_equiv_invalid_input(self):
        assert cmd_seifert_equiv("0;2/4", "0;1/2").exit_code == 1
        assert cmd_seifert_equiv("garbage", "0;1/2").exit_code == 2

    def test_normalize(self):
        result = cmd_seifert_normalize("0;3/2,1/3")
        assert result.exit_code == 0
        assert result.human_text == "0;1/2,1/3,1/1"
        assert result.machine_lines == ("normalize 0;1/2,1/3,1/1",)

    def test_emit_round_trips_through_homology(self):
        emitted = cmd_seifert_emit("0;1/2,1/3,1/5")
        assert emitted.exit_code == 0
        assert emitted.machine_lines is None
        assert emitted.human_text.startswith("format nmsflow 1\n")
        assert "incidence o1_1 o0_1 2" in emitted.human_text

    def test_emit_single_fiber(self):
        emitted = cmd_seifert_emit("0;1/1")
        assert "incidence" not in emitted.human_text
        assert emitted.human_text.count("orbit ") == 2

    def test_emit_invalid_exit_one(self):
        assert cmd_seifert_emit("0;").exit_code == 1


class TestMainRendering:
    def test_plain_result_on_stdout(self, tmp_path, capsys):
        code = main(["homology", "--seifert", "0;1/2,1/3,1/5"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == "H_0 = Z\nH_1 = 0\nH_2 = Z\n"
        assert captured.err == ""

    def test_porcelain_header_and_streams(self, capsys):
        code = main(["--porcelain", "homology", "--seifert", "0;1/2,1/4"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == "porcelain 1\nhomology 0 1 2\nhomology 1 0\nhomology 2 1\n"
        assert "H_0 = Z + Z/2" in captured.err

    def test_diagnostics_on_stderr(self, tmp_path, capsys):
        path = _write(tmp_path, "f.nms", EQUAL_INDEX_FLOW)
        code = main(["validate", path])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == "invalid\n"
        assert "equal-index-incidence" in captured.err

    def test_identical_duplicate_lines_are_reported(self, tmp_path, capsys):
        path = _write(
            tmp_path,
            "f.nms",
            "format nmsflow 1\ndim 2\norbit a index 0\norbit a index 0\norbit b index 1\n"
            "incidence b a 0\nincidence b a 0\n",
        )
        code = main(["--porcelain", "validate", path])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == (
            "porcelain 1\nviolation duplicate-orbit-id a\nviolation duplicate-incidence b a\n"
        )

    @pytest.mark.parametrize(
        "argv, text, expected",
        [
            # gcd 1 and lcm 10^2999 * 33...3, about 6000 digits
            (
                ["--porcelain", "snf"],
                f"rows 2 cols 2\n1{'0' * 2999} 0\n0 {'3' * 3000}\n",
                f"porcelain 1\nsnf 1 {'3' * 3000}{'0' * 2999}\n",
            ),
            (
                ["snf"],
                f"rows 2 cols 2\n1{'0' * 2999} 0\n0 {'3' * 3000}\n",
                f"elementary divisors: 1 {'3' * 3000}{'0' * 2999}\n",
            ),
            # d.d holds the product of two 4001-digit coefficients
            (
                ["--porcelain", "validate"],
                "format nmsflow 1\ndim 3\norbit x index 0\norbit y index 1\norbit z index 2\n"
                f"incidence y x 1{'0' * 4000}\nincidence z y -1{'0' * 4000}\n",
                f"porcelain 1\nviolation nonzero-boundary-square z x -1{'0' * 8000}\n",
            ),
        ],
        ids=["snf-porcelain", "snf-human", "validate-porcelain"],
    )
    def test_integers_past_the_conversion_limit_are_printed_in_full(
        self, tmp_path, capsys, argv, text, expected
    ):
        code = main([*argv, _write(tmp_path, "input.txt", text)])
        captured = capsys.readouterr()
        assert captured.out == expected
        assert code == (1 if "validate" in argv else 0)
        assert "Traceback" not in captured.err

    def test_seifert_results_past_the_conversion_limit_are_printed_in_full(self, capsys):
        # two betas of the longest readable length sum to one digit more
        digits = sys.get_int_max_str_digits() or 4300
        nines = "9" * digits
        assert main(["seifert", "normalize", f"0;{nines}/1,{nines}/1"]) == 0
        assert capsys.readouterr().out == f"0;1{'9' * (digits - 1)}8/1\n"
        # torsion 2^13000 * 5^6000 = 2^7000 * 10^6000, 8108 digits; each alpha has under 4300
        two, five = 2**13000, 5**6000
        invariants = f"0;1/{two},1/{two},1/{five},1/{five}"
        assert main(["--porcelain", "homology", "--seifert", invariants]) == 0
        assert capsys.readouterr().out == (
            f"porcelain 1\nhomology 0 1 {2**7000}{'0' * 6000}\nhomology 1 0\nhomology 2 1\n"
        )

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["homology"])
        assert err.value.code == 2

    def test_emit_identical_with_and_without_porcelain(self, capsys):
        main(["seifert", "emit", "1;1/1,1/1"])
        plain = capsys.readouterr().out
        main(["--porcelain", "seifert", "emit", "1;1/1,1/1"])
        porcelain = capsys.readouterr().out
        assert plain == porcelain
        assert plain.startswith("format nmsflow 1\n")


class TestSharedParser:
    """main builds its parser once per process, and no call leaks into the next."""

    def test_parser_is_built_on_the_first_call_only(self, monkeypatch):
        main(["seifert", "normalize", "0;1/2"])
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert main(["homology", "--seifert", "0;1/2,1/3,1/5"]) == 0
        assert main(["--porcelain", "seifert", "equiv", "0;1/2", "0;1/2"]) == 0
        assert built == []

    def test_witness_does_not_carry_over(self, tmp_path, capsys):
        path = _write(tmp_path, "m.txt", "rows 2 cols 2\n2 0\n0 3\n")
        assert main(["snf", "--witness", path]) == 0
        assert "u =" in capsys.readouterr().out
        assert main(["snf", path]) == 0
        assert capsys.readouterr().out == "elementary divisors: 1 6\n"

    def test_porcelain_does_not_carry_over(self, tmp_path, capsys):
        assert main(["--porcelain", "homology", "--seifert", "0;1/2,1/4"]) == 0
        assert capsys.readouterr().out.startswith("porcelain 1\n")
        assert main(["homology", _write(tmp_path, "f.nms", GOOD_FLOW)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "H_0 = Z\nH_1 = 0\nH_2 = Z\n"
        assert "porcelain" not in captured.out + captured.err

    def test_usage_error_leaves_no_trace(self, tmp_path, capsys):
        argv = ["homology", _write(tmp_path, "f.nms", GOOD_FLOW)]
        first = subprocess.run(
            [sys.executable, "-m", "nmshom", *argv], capture_output=True, text=True
        )
        with pytest.raises(SystemExit) as err:
            main(["homology"])
        assert err.value.code == 2
        assert "not both" in capsys.readouterr().err
        assert main(argv) == first.returncode == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (first.stdout, first.stderr)


# str.splitlines also breaks lines at these; the text formats do not
OTHER_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


class TestLineBreaks:
    def _main(self, tmp_path, capsys, argv, text):
        path = tmp_path / "input.txt"
        path.write_bytes(text.encode())
        code = main([*argv, str(path)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("char", OTHER_LINE_BREAKS, ids=map(hex, map(ord, OTHER_LINE_BREAKS)))
    def test_other_line_breaks_stay_inside_a_comment(self, tmp_path, capsys, char):
        # the only index-1 orbit is commented out
        flow = f"format nmsflow 1\ndim 2\norbit a index 0\n# retired:{char}orbit b index 1\n"
        code, out, _ = self._main(tmp_path, capsys, ["--porcelain", "validate"], flow)
        assert (code, out) == (1, "porcelain 1\nviolation missing-repelling-orbit\n")
        # the only matrix row is commented out
        code, out, err = self._main(tmp_path, capsys, ["snf"], f"rows 1 cols 1\n# was 5{char}7\n")
        assert (code, out) == (2, "")
        assert err == "error: line 1: expected 1 matrix rows, found 0\n"

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_universal_newlines_parse_alike(self, tmp_path, capsys, newline):
        def lines(*rows):
            return newline.join(rows) + newline

        flow = lines("format nmsflow 1", "dim 2", "# c", "orbit a index 0", "orbit b index 1")
        assert self._main(tmp_path, capsys, ["validate"], flow) == (0, "valid\n", "")
        bad_flow = lines("format nmsflow 1", "dim 2", "", "orbit a index x")
        assert self._main(tmp_path, capsys, ["validate"], bad_flow) == (
            2,
            "",
            "error: line 4: non-integer orbit index 'x'\n",
        )
        matrix = lines("rows 2 cols 2", "2 0", "# c", "0 3")
        expected = (0, "elementary divisors: 1 6\n", "")
        assert self._main(tmp_path, capsys, ["snf"], matrix) == expected
        bad_matrix = lines("rows 2 cols 2", "2 0", "", "3")
        assert self._main(tmp_path, capsys, ["snf"], bad_matrix) == (
            2,
            "",
            "error: line 4: expected 2 entries, found 1\n",
        )


class TestEndToEnd:
    def _run(self, args, stdin_text=None):
        return subprocess.run(
            [sys.executable, "-m", "nmshom", *args],
            input=stdin_text,
            capture_output=True,
            text=True,
        )

    def test_console_pipeline_matches_closed_form(self):
        invariants = "1;2/3,1/4"
        emitted = self._run(["seifert", "emit", invariants])
        assert emitted.returncode == 0
        piped = self._run(["--porcelain", "homology", "-"], stdin_text=emitted.stdout)
        direct = self._run(["--porcelain", "homology", "--seifert", invariants])
        assert piped.returncode == 0 and direct.returncode == 0
        assert piped.stdout == direct.stdout

    @pytest.mark.parametrize("command", ["validate", "homology", "snf"])
    def test_undecodable_input_exits_two(self, tmp_path, command):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"format nmsflow 1\ndim 2\norbit \xff index 0\n")
        result = self._run([command, str(path)])
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.startswith("error: ")
        assert "Traceback" not in result.stderr

    def test_stdin_decodes_like_a_file_under_the_c_locale(self, tmp_path):
        # Under the C locale sys.stdin decodes with surrogateescape, which
        # let an undecodable comment byte through on stdin only.
        data = b"format nmsflow 1\n# caf\xff\ndim 2\norbit a index 0\norbit b index 1\n"
        path = tmp_path / "bad.nms"
        path.write_bytes(data)
        unset = ("LC_", "PYTHONUTF8", "PYTHONIOENCODING")
        env = {k: v for k, v in os.environ.items() if not k.startswith(unset)}
        env.update(LC_ALL="C", LANG="C")
        runs = [
            subprocess.run(
                [sys.executable, "-m", "nmshom", "validate", source],
                input=data,
                capture_output=True,
                env=env,
            )
            for source in ("-", str(path))
        ]
        for run in runs:
            assert run.returncode == 2
            assert run.stdout == b""
            assert run.stderr.startswith(b"error: 'utf-8' codec can't decode byte 0xff")
        assert runs[0].stderr == runs[1].stderr

    def test_snf_reads_stdin(self):
        result = self._run(["snf", "-"], stdin_text="rows 2 cols 2\n2 0\n0 3\n")
        assert result.returncode == 0
        assert result.stdout == "elementary divisors: 1 6\n"
