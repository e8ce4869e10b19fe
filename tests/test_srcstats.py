"""``tools/srcstats.py``: one real cold launch, and the report of many."""

from __future__ import annotations

from conftest import REPO, load_tool


def test_srcstats_counts_lines_and_measures_one_cold_compile():
    srcstats = load_tool("srcstats")
    lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                for p in (REPO / "src" / "framewatt").glob("*.py"))
    assert srcstats.line_count(REPO) == lines
    assert srcstats.compile_us(REPO) > 0


def test_srcstats_alternates_checkouts_and_reports_quartiles(tmp_path, monkeypatch, capsys):
    srcstats = load_tool("srcstats")
    other = tmp_path / "other"
    (other / "src" / "framewatt").mkdir(parents=True)
    (other / "src" / "framewatt" / "m.py").write_text("a = 1\nb = 2\n", encoding="utf-8")
    launches = []
    monkeypatch.setattr(srcstats, "compile_us",
                        lambda c: launches.append(c) or 1000 * len(launches))
    assert srcstats.main([str(REPO), str(other)]) == 0
    assert launches == [REPO, other, other, REPO] * 5 + [REPO, other]
    table, modules = capsys.readouterr().out.split("\n\n")
    assert [row.split()[1:] for row in table.splitlines()[1:]] == [
        [str(srcstats.line_count(REPO)), "12.0", "[6.5,", "16.5]"],
        ["2", "11.0", "[6.5,", "16.5]"]]
    # Then each module's lines, a column per checkout, "-" where it has none.
    ours = {p.name: len(p.read_text(encoding="utf-8").splitlines())
            for p in (REPO / "src" / "framewatt").glob("*.py")}
    assert modules.splitlines()[0].split() == ["module", "lines", REPO.name, "other"]
    assert [row.split() for row in modules.splitlines()[1:]] == sorted(
        [[name, str(n), "-"] for name, n in ours.items()] + [["m.py", "-", "2"]])
