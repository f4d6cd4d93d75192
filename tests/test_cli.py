"""The repro-pestrie command-line interface."""

import os

import pytest

from repro.cli import load_matrix_file, main, save_matrix_file
from repro.matrix.points_to import PointsToMatrix

IR_SOURCE = """
func make() {
  m = alloc M
  return m
}

func main() {
  p = call make()
  q = call make()
  *p = q
  r = *p
  return
}
"""


@pytest.fixture
def ir_file(tmp_path):
    path = tmp_path / "app.ir"
    path.write_text(IR_SOURCE)
    return str(path)


@pytest.fixture
def pm_file(tmp_path, paper_matrix):
    path = tmp_path / "paper.pm"
    save_matrix_file(paper_matrix, str(path))
    return str(path)


class TestMatrixFileFormat:
    def test_round_trip(self, tmp_path, paper_matrix):
        path = str(tmp_path / "m.pm")
        save_matrix_file(paper_matrix, path)
        assert load_matrix_file(path) == paper_matrix

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "m.pm"
        path.write_text("2 2\n# comment\n\n0 1\n")
        matrix = load_matrix_file(str(path))
        assert matrix.has(0, 1)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "m.pm"
        path.write_text("2\n")
        with pytest.raises(ValueError, match="first line"):
            load_matrix_file(str(path))

    def test_bad_fact_line(self, tmp_path):
        path = tmp_path / "m.pm"
        path.write_text("2 2\n0 1 2\n")
        with pytest.raises(ValueError, match="expected"):
            load_matrix_file(str(path))


class TestEncodeAndInfo:
    def test_encode_from_ir(self, ir_file, tmp_path, capsys):
        out = str(tmp_path / "app.pes")
        assert main(["encode", ir_file, out]) == 0
        assert os.path.exists(out)
        assert "bytes" in capsys.readouterr().out

    def test_encode_from_pm(self, pm_file, tmp_path, capsys):
        out = str(tmp_path / "paper.pes")
        assert main(["encode", pm_file, out]) == 0
        captured = capsys.readouterr().out
        assert "7 pointers, 5 objects, 15 facts" in captured

    def test_encode_compact_smaller(self, pm_file, tmp_path):
        raw = str(tmp_path / "raw.pes")
        compact = str(tmp_path / "compact.pes")
        main(["encode", pm_file, raw])
        main(["encode", pm_file, compact, "--compact"])
        assert os.path.getsize(compact) < os.path.getsize(raw)

    def test_encode_analysis_choices(self, ir_file, tmp_path):
        for analysis in ("steensgaard", "flow-sensitive", "1-callsite", "2-callsite"):
            out = str(tmp_path / (analysis + ".pes"))
            assert main(["encode", ir_file, out, "--analysis", analysis]) == 0

    def test_info(self, pm_file, tmp_path, capsys):
        out = str(tmp_path / "paper.pes")
        main(["encode", pm_file, out, "--order", "identity"])
        capsys.readouterr()
        assert main(["info", out]) == 0
        captured = capsys.readouterr().out
        assert "pointers:     7 (7 tracked)" in captured
        assert "groups (ES):  9" in captured
        assert "rectangles:   7" in captured
        assert "points:     5" in captured

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["info", str(tmp_path / "nope.pes")]) == 1
        assert "error" in capsys.readouterr().err

    def test_program_without_allocation_sites(self, tmp_path, capsys):
        pm = tmp_path / "empty.pm"
        pm.write_text("4 0\n")
        ir = tmp_path / "copy.ir"
        ir.write_text("func main() {\n  p = q\n  return\n}\n")
        for source in (pm, ir):
            for version in ("1", "2", "3", "4"):
                out = str(tmp_path / ("%s.v%s.pes" % (source.stem, version)))
                assert main(["encode", str(source), out,
                             "--format-version", version]) == 0
                assert main(["verify", out]) == 0
                capsys.readouterr()
                assert main(["query", out, "list_points_to", "0"]) == 0
                assert capsys.readouterr().out.strip() == ""
                assert main(["query", out, "is_alias", "0", "1"]) == 0
                assert capsys.readouterr().out.strip() == "false"


class TestQuery:
    @pytest.fixture
    def pes_file(self, pm_file, tmp_path):
        out = str(tmp_path / "paper.pes")
        main(["encode", pm_file, out])
        return out

    def test_is_alias(self, pes_file, capsys):
        assert main(["query", pes_file, "is_alias", "0", "6"]) == 0
        assert capsys.readouterr().out.strip() == "true"
        assert main(["query", pes_file, "is_alias", "4", "5"]) == 0
        assert capsys.readouterr().out.strip() == "false"

    def test_list_points_to(self, pes_file, capsys):
        assert main(["query", pes_file, "list_points_to", "3"]) == 0
        assert capsys.readouterr().out.strip() == "0 1 2 3"

    def test_list_pointed_by(self, pes_file, capsys):
        assert main(["query", pes_file, "list_pointed_by", "4"]) == 0
        assert capsys.readouterr().out.strip() == "0 2 6"

    def test_list_aliases(self, pes_file, capsys):
        assert main(["query", pes_file, "list_aliases", "1"]) == 0
        assert capsys.readouterr().out.strip() == "0 2 3"

    def test_wrong_operand_count(self, pes_file, capsys):
        assert main(["query", pes_file, "is_alias", "1"]) == 2
        assert main(["query", pes_file, "list_points_to", "1", "2"]) == 2


class TestServeStats:
    @pytest.fixture
    def pes_file(self, pm_file, tmp_path):
        out = str(tmp_path / "paper.pes")
        main(["encode", pm_file, out])
        return out

    def test_single_file(self, pes_file, capsys):
        assert main(["serve-stats", pes_file, "--queries", "500"]) == 0
        captured = capsys.readouterr().out
        assert "1 shard(s), 7 pointers, 5 objects" in captured
        assert "replayed 500 queries" in captured
        assert "hit rate" in captured
        assert "is_alias" in captured

    def test_sharded_and_unbatched(self, pes_file, capsys):
        assert main(["serve-stats", pes_file, pes_file,
                     "--queries", "200", "--batch-size", "1",
                     "--cache-size", "0"]) == 0
        captured = capsys.readouterr().out
        assert "2 shard(s), 14 pointers, 5 objects" in captured
        assert "0.0% hit rate" in captured

    def test_segment_mode(self, pes_file, capsys):
        assert main(["serve-stats", pes_file, "--queries", "100",
                     "--mode", "segment"]) == 0
        assert "replayed 100 queries" in capsys.readouterr().out

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert main(["serve-stats", str(tmp_path / "nope.pes")]) == 1
        assert "error" in capsys.readouterr().err


class TestFormatVersionFlag:
    def test_default_writes_pestrie3(self, pm_file, tmp_path):
        out = tmp_path / "v3.pes"
        assert main(["encode", pm_file, str(out)]) == 0
        assert out.read_bytes()[:8] == b"PESTRIE3"

    def test_legacy_versions_selectable(self, pm_file, tmp_path):
        for version, magic in ((1, b"PESTRIE1"), (2, b"PESTRIE2")):
            out = tmp_path / ("v%d.pes" % version)
            assert main(["encode", pm_file, str(out),
                         "--format-version", str(version)]) == 0
            assert out.read_bytes()[:8] == magic

    def test_version1_refuses_compact(self, pm_file, tmp_path, capsys):
        out = str(tmp_path / "bad.pes")
        assert main(["encode", pm_file, out, "--format-version", "1", "--compact"]) == 1
        assert "compact" in capsys.readouterr().err

    def test_info_reports_format(self, pm_file, tmp_path, capsys):
        out = str(tmp_path / "v3.pes")
        main(["encode", pm_file, out])
        capsys.readouterr()
        assert main(["info", out]) == 0
        assert "PESTRIE3" in capsys.readouterr().out


class TestVerify:
    def test_intact_file(self, pm_file, tmp_path, capsys):
        out = str(tmp_path / "ok.pes")
        main(["encode", pm_file, out])
        capsys.readouterr()
        assert main(["verify", out]) == 0
        assert "OK" in capsys.readouterr().out

    def test_intact_legacy_file(self, pm_file, tmp_path, capsys):
        out = str(tmp_path / "ok1.pes")
        main(["encode", pm_file, out, "--format-version", "1"])
        capsys.readouterr()
        assert main(["verify", out]) == 0
        assert "PESTRIE1" in capsys.readouterr().out

    def test_corrupt_file(self, pm_file, tmp_path, capsys):
        out = tmp_path / "bad.pes"
        main(["encode", pm_file, str(out)])
        blob = bytearray(out.read_bytes())
        blob[len(blob) // 2] ^= 0x40
        out.write_bytes(bytes(blob))
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        assert "CORRUPT" in capsys.readouterr().err

    def test_truncated_file(self, pm_file, tmp_path, capsys):
        out = tmp_path / "cut.pes"
        main(["encode", pm_file, str(out)])
        out.write_bytes(out.read_bytes()[:20])
        capsys.readouterr()
        assert main(["verify", str(out)]) == 1
        assert "CORRUPT" in capsys.readouterr().err


class TestAnalyzeAndBench:
    def test_analyze_archive(self, ir_file, tmp_path, capsys):
        out = str(tmp_path / "archive")
        assert main(["analyze", ir_file, out]) == 0
        assert sorted(os.listdir(out)) == [
            "call_edges.json",
            "points_to.pes",
            "program.ir",
            "variables.json",
        ]

    def test_bench_table(self, ir_file, capsys):
        assert main(["bench", ir_file]) == 0
        captured = capsys.readouterr().out
        assert "pestrie" in captured
        assert "bitmap (PM+AM)" in captured
        assert "bdd (PM only)" in captured

    def test_bench_bdd_limit(self, ir_file, capsys):
        assert main(["bench", ir_file, "--bdd-limit", "0"]) == 0
        assert "bdd" not in capsys.readouterr().out


class TestQueryModes:
    @pytest.fixture
    def pes_file(self, pm_file, tmp_path):
        out = str(tmp_path / "paper.pes")
        main(["encode", pm_file, out])
        return out

    def test_segment_mode_agrees(self, pes_file, capsys):
        assert main(["query", pes_file, "list_aliases", "1"]) == 0
        ptlist_out = capsys.readouterr().out
        assert main(["query", pes_file, "list_aliases", "1", "--mode", "segment"]) == 0
        assert capsys.readouterr().out == ptlist_out


class TestQueryExplain:
    @pytest.fixture
    def pes_file(self, pm_file, tmp_path):
        out = str(tmp_path / "explain.pes")
        main(["encode", pm_file, out])
        return out

    # The breakdown's shape is a golden contract: fixed labels, fixed
    # order, one value column.  Only the values vary run to run.
    GOLDEN_LABELS = ["bytes_parsed", "sections_materialized", "cache",
                     "replay_depth", "shard_fanout", "queries", "seconds"]

    def test_explain_prints_golden_breakdown(self, pes_file, capsys):
        assert main(["query", pes_file, "is_alias", "0", "1",
                     "--explain"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] in ("true", "false")
        assert lines[1] == "--- cost ---"
        assert [line.split()[0] for line in lines[2:]] == self.GOLDEN_LABELS
        parsed = int(lines[2].split()[1])
        assert parsed > 0  # the lazy open charges the parse to this query
        assert lines[7].split()[1] == "1"  # queries

    def test_explain_with_as_of_reports_the_epoch(self, pes_file, capsys):
        assert main(["delta-append", pes_file, "--insert", "0:1"]) == 0
        capsys.readouterr()
        assert main(["query", pes_file, "list_points_to", "0",
                     "--as-of", "1", "--explain"]) == 0
        lines = capsys.readouterr().out.splitlines()
        cost_lines = lines[lines.index("--- cost ---") + 1:]
        assert cost_lines[0].split() == ["epoch", "1"]

    def test_without_explain_output_is_unchanged(self, pes_file, capsys):
        assert main(["query", pes_file, "is_alias", "0", "1"]) == 0
        out = capsys.readouterr().out
        assert "--- cost ---" not in out
        assert out.strip() in ("true", "false")
