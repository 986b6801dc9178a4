"""Command-line behavior: exit codes, stream discipline, porcelain records."""

import subprocess
import sys

import pytest

from nmshom import IntegerMatrix, format_matrix, parse_matrix
from nmshom.cli import (
    cmd_homology,
    cmd_seifert_emit,
    cmd_seifert_equiv,
    cmd_seifert_normalize,
    cmd_snf,
    cmd_validate,
    main,
)

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
        assert u @ source @ v == s

    def test_malformed_matrix_exit_two(self, tmp_path):
        result = cmd_snf(_write(tmp_path, "m.txt", "rows 1 cols 1\nx\n"))
        assert result.exit_code == 2


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

    def test_snf_reads_stdin(self):
        result = self._run(["snf", "-"], stdin_text="rows 2 cols 2\n2 0\n0 3\n")
        assert result.returncode == 0
        assert result.stdout == "elementary divisors: 1 6\n"
