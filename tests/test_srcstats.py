"""``tools/srcstats.py``: one real launch of each probe, and the report of many."""

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
    monkeypatch.setattr(srcstats, "startup", lambda checkouts: ["the ledger"])
    assert srcstats.main([str(REPO), str(other)]) == 0
    assert launches == [REPO, other, other, REPO] * 5 + [REPO, other]
    table, modules, ledger = capsys.readouterr().out.split("\n\n")
    assert ledger == "the ledger\n"
    assert [row.split()[1:] for row in table.splitlines()[1:]] == [
        [str(srcstats.line_count(REPO)), "12.0", "[6.5,", "16.5]"],
        ["2", "11.0", "[6.5,", "16.5]"]]
    # Then each module's lines, a column per checkout, "-" where it has none.
    ours = {p.name: len(p.read_text(encoding="utf-8").splitlines())
            for p in (REPO / "src" / "framewatt").glob("*.py")}
    assert modules.splitlines()[0].split() == ["module", "lines", REPO.name, "other"]
    assert [row.split() for row in modules.splitlines()[1:]] == sorted(
        [[name, str(n), "-"] for name, n in ours.items()] + [["m.py", "-", "2"]])


def test_srcstats_ledger_probes_launch_cold_and_warm_copies(tmp_path):
    srcstats = load_tool("srcstats")
    cold = srcstats.package_copy(REPO, tmp_path / "cold", warm=False)
    warm = srcstats.package_copy(REPO, tmp_path / "warm", warm=True)
    assert not list(cold.rglob("*.pyc"))
    assert len(list(warm.rglob("*.pyc"))) == len(list(warm.glob("framewatt/*.py")))
    assert srcstats.launch_s(cold) > 0
    assert {"framewatt.core", "framewatt.cli"} <= set(srcstats.self_us(warm))
    beyond = srcstats.stdlib_beyond(warm)
    assert "enum" not in beyond  # argparse loads it first
    assert not any(m.startswith("framewatt") for m in beyond)


def test_srcstats_ledger_alternates_and_tabulates(tmp_path, monkeypatch):
    srcstats = load_tool("srcstats")
    other = tmp_path / "other"
    (other / "src" / "framewatt").mkdir(parents=True)
    (other / "src" / "framewatt" / "cli.py").write_text("", encoding="utf-8")
    walls = []
    monkeypatch.setattr(srcstats, "launch_s", lambda tree: walls.append(tree) or 0.001 * len(walls))
    monkeypatch.setattr(srcstats, "self_us", lambda tree: {"framewatt.core": 1500})
    monkeypatch.setattr(srcstats, "stdlib_beyond",
                        lambda tree: {"typing"} if tree.name.startswith("0-") else set())
    lines = srcstats.startup([REPO, other])
    assert len(walls) == 4 * srcstats.LAUNCHES
    assert [w.name for w in walls[:8]] == ["0-False", "0-True", "1-False", "1-True",
                                           "1-False", "1-True", "0-False", "0-True"]
    wall, selfs, stdlib = "\n".join(lines).split("\n\n")
    # Launch k takes k ms, so each side's walls are its launch numbers.
    assert [row.split()[1:] for row in wall.splitlines()[1:]] == [
        ["23.0", "[12.0,", "32.0]", "24.0", "[13.0,", "33.0]"],
        ["21.0", "[12.0,", "32.0]", "22.0", "[13.0,", "33.0]"]]
    assert selfs.splitlines()[1].split() == ["framewatt.core", "1.50", "1.50"]
    assert [row.split() for row in stdlib.splitlines()[1:]] == [
        ["(count)", "1", "0"], ["typing", "x", "-"]]
