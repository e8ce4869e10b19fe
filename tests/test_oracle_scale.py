"""``tools/oracle_scale.py``: real launches at a small run, and its table."""

from __future__ import annotations

from conftest import REPO, load_tool


def test_oracle_scale_times_the_oracle_and_a_validate_launch(monkeypatch, capsys):
    scale = load_tool("oracle_scale")
    monkeypatch.setattr(scale, "SIZES", (200,))
    monkeypatch.setattr(scale, "LAUNCHES", 1)
    assert scale.main([str(REPO)]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split()[:3] == ["checkout", "windows", "oracle"]
    checkout, windows, us, wall, mib = row.split()
    assert (checkout, windows) == (str(REPO), "200")
    assert float(us) > 0 and float(wall) > 0 and float(mib) > 0


def test_oracle_scale_alternates_checkouts_and_reports_the_least_launch(tmp_path, monkeypatch, capsys):
    scale = load_tool("oracle_scale")
    other = tmp_path / "other"
    launches = []
    monkeypatch.setattr(scale, "SIZES", (10, 20))
    monkeypatch.setattr(scale, "LAUNCHES", 3)
    monkeypatch.setattr(scale, "oracle_us_per_window",
                        lambda c, n: launches.append((c.name, n)) or float(len(launches)))
    monkeypatch.setattr(scale, "validate_run", lambda c, n: (n / 10, 2.0 * n))
    assert scale.main([str(REPO), str(other)]) == 0
    assert launches == [(REPO.name, 10), ("other", 10), (REPO.name, 20), ("other", 20),
                        ("other", 10), (REPO.name, 10), ("other", 20), (REPO.name, 20),
                        (REPO.name, 10), ("other", 10), (REPO.name, 20), ("other", 20)]
    rows = [row.split()[1:] for row in capsys.readouterr().out.splitlines()[1:]]
    # Each checkout's least launch: ours are launches 1, 6, 9 and 3, 8, 11.
    assert rows == [["10", "1.0", "1.00", "20.0"], ["20", "3.0", "2.00", "40.0"],
                    ["10", "2.0", "1.00", "20.0"], ["20", "4.0", "2.00", "40.0"]]
