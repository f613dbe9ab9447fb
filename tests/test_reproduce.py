"""``scripts/reproduce.py``'s command line, on a stub protocol: the real
protocols run in the acceptance fixtures."""

import csv
import re
from types import SimpleNamespace

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


def test_main_prints_cpu_seconds_and_page_faults(monkeypatch, capsys):
    """The resource use of each protocol is the difference of two readings
    taken around it."""
    readings = iter([SimpleNamespace(ru_utime=1.0, ru_stime=0.5, ru_minflt=100),
                     SimpleNamespace(ru_utime=3.4, ru_stime=0.8, ru_minflt=4200)])
    monkeypatch.setattr(reproduce.resource, "getrusage", lambda who: next(readings))
    monkeypatch.setattr(reproduce, "PROTOCOLS", {"stub": stub})
    assert reproduce.main(["--seeds", "2"]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert re.fullmatch(r"2 seeds in \d+s: user 2\.4s, sys 0\.3s, 4100 minor page faults",
                        last), last


@pytest.mark.parametrize("argv", [["--protocol", "memorizing"], ["--seeds", "0"]],
                         ids=["unknown-protocol", "no-seeds"])
def test_main_usage_error_exits_2(monkeypatch, argv):
    monkeypatch.setattr(reproduce, "PROTOCOLS", {"stub": stub})
    with pytest.raises(SystemExit) as exc:
        reproduce.main(argv)
    assert exc.value.code == 2
