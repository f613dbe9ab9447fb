"""``scripts/reproduce.py``'s command line, on a stub protocol, and its
protocols' config text; the real protocols run in the acceptance fixtures."""

import csv
import pathlib
import re
import subprocess
import sys
from types import SimpleNamespace

import pytest

import reproduce
from codim.cli import main as codim_main
from codim.config import load_config


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


@pytest.mark.parametrize("preset", [None, "2"], ids=["unset", "user-set"])
def test_import_pins_blas_to_one_thread_unless_the_caller_set_it(preset):
    """Run in a clean environment, apart from writing no bytecode: each BLAS
    thread variable reads 1 once the script is imported, except one the
    caller set, which is kept."""
    env = {"PYTHONDONTWRITEBYTECODE": "1"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = ("import os, reproduce; print(*(os.environ[v] for v in "
            "('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS')))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         cwd=pathlib.Path(reproduce.__file__).parent,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == [preset or "1", "1", "1"]


@pytest.mark.parametrize("name", list(reproduce.PROTOCOLS))
def test_protocol_text_is_a_codim_config(tmp_path, name):
    """Each protocol's constant, with one seed's lines, is a config file that
    ``codim gen`` accepts, and the snapshot it writes holds the values the
    protocol runs on."""
    text = getattr(reproduce, name.upper())
    out_dir = tmp_path / "out"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{text}data_seed = 3\nnoise_seed = 103\nseed = 3\nout_dir = {out_dir}\n")
    assert codim_main(["gen", str(cfg)]) == 0
    resolved = load_config(out_dir / "config_resolved.txt")
    assert resolved.pop("out_dir") == str(out_dir)
    expected = reproduce._values(text, 3)
    expected.pop("out_dir")
    assert resolved == expected
