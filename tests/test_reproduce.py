"""``scripts/reproduce.py``'s command line, on a stub protocol: the real
protocols run in the acceptance fixtures."""

import csv

import pytest

import reproduce


def stub(seed):
    return dict(acc=0.5 + seed / 10, flips=7 - seed)


def test_main_prints_one_table_and_writes_its_csv(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(reproduce, "PROTOCOLS", {"stub": stub})
    assert reproduce.main(["--seeds", "2", "--out-dir", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines.index("    seed      acc    flips")
    assert lines[header + 1:header + 3] == ["       0   0.5000        7",
                                            "       1   0.6000        6"]
    with open(tmp_path / "stub.csv", newline="") as fh:
        assert list(csv.reader(fh)) == [["seed", "acc", "flips"],
                                        ["0", "0.5", "7"], ["1", "0.6", "6"]]


@pytest.mark.parametrize("argv", [["--protocol", "memorizing"], ["--seeds", "0"]],
                         ids=["unknown-protocol", "no-seeds"])
def test_main_usage_error_exits_2(monkeypatch, argv):
    monkeypatch.setattr(reproduce, "PROTOCOLS", {"stub": stub})
    with pytest.raises(SystemExit) as exc:
        reproduce.main(argv)
    assert exc.value.code == 2
