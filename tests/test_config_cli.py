"""Config parsing and the CLI subcommands, including exit codes and
run-directory artifacts."""

import codecs
import csv
import hashlib
import io
import itertools
import os
import pathlib
import struct
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from codim import __version__
from codim.checkpoint import MAGIC
from codim.cli import _read_losses, main
from codim.config import (SCHEMA, load_config, make_dataset, make_train_config,
                          parse_config_text, resolved_config_text)
from codim.contrastive import AugmentSpec
from codim.data import BlobSpec, gen_blobs
from codim.errors import ConfigError
from codim.mixmatch import SslHyper
from codim.noise import NoiseSpec, partition_losses
from codim.trainers import RUN_RECORD_HEADER, TrainConfig, train_cssl


SMALL_CONFIG = """
# tiny run for CLI tests
num_classes = 3
samples_per_class = 40
noise_kind = symmetric
noise_ratio = 0.3
pretrain_steps = 10
warmup_epochs = 1
epochs = 2
iters_per_epoch = 2
batch_size = 16
feat_hidden = 8,8
proj_hidden = 8
proj_dim = 4
label_correction_epochs = 2
"""


def small_config(extra=""):
    """SMALL_CONFIG with each ``key = value`` line of ``extra`` in place of
    its own line for that key, since a file may set a key only once."""
    given = {line.partition("=")[0].strip() for line in extra.splitlines()}
    kept = [line for line in SMALL_CONFIG.splitlines()
            if line.partition("=")[0].strip() not in given]
    return "\n".join(kept) + "\n" + extra


def write_config(tmp_path, extra=""):
    """A small config at ``tmp_path/run.cfg`` that writes to ``tmp_path/out``
    unless ``extra`` sets its own ``out_dir``."""
    path = tmp_path / "run.cfg"
    out_dir = tmp_path / "out"
    own = "" if "out_dir" in extra else f"out_dir = {out_dir}\n"
    path.write_text(small_config(own + extra))
    return str(path), str(out_dir)


# ------------------------------------------------------------- parsing

def test_defaults_cover_every_key():
    values = parse_config_text("")
    assert set(values) == set(SCHEMA)
    assert values["noise_ratio"] == 0.4
    assert values["mode"] == "sup"


def test_comments_and_spacing():
    values = parse_config_text("\n  # comment\n lr = 0.25  # trailing\n\n")
    assert values["lr"] == 0.25


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="line 3: unknown key 'typo_key'"):
        parse_config_text("lr = 0.1\n\ntypo_key = 5\n")


def test_repeated_key_reports_both_lines():
    with pytest.raises(ConfigError, match="line 3: 'lr' is already set on line 1"):
        parse_config_text("lr = 0.1\n# retuned\n  lr = 0.5  # typo\n")
    with pytest.raises(ConfigError, match="line 2: 'mode'"):
        parse_config_text("mode = sup\nmode = sup\n")


def test_bad_value_reports_line_and_key():
    with pytest.raises(ConfigError, match="line 1: bad value for 'epochs'"):
        parse_config_text("epochs = many\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_text("just some words\n")
    with pytest.raises(ConfigError, match="bad value for 'mode'"):
        parse_config_text("mode = everything\n")
    with pytest.raises(ConfigError, match="bad value for 'dataset'"):
        parse_config_text("dataset = rings\n")


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/path.cfg")


def test_resolved_round_trip():
    values = parse_config_text("lr = 0.125\nmode = cssl\n")
    again = parse_config_text(resolved_config_text(values))
    assert again == values


def test_make_dataset_and_train_config(tmp_path):
    values = parse_config_text(SMALL_CONFIG)
    ds = make_dataset(values)
    # redrawn over all classes, a selected row may keep its clean label
    assert ds.num_classes == 3 and 0 < ds.flip_mask.sum() <= round(0.3 * ds.n)
    assert np.array_equal(ds.flip_mask, ds.noisy_labels != ds.clean_labels)
    cfg = make_train_config(values)
    assert cfg.feat_hidden == (8, 8) and cfg.mode == "sup"
    cfg_dm = make_train_config({**values, "mode": "dividemix"})
    assert cfg_dm.mode == "bare" and cfg_dm.pretrain_steps == 0
    cfg_ce = make_train_config(parse_config_text(SMALL_CONFIG + "mode = ce\n"))
    assert cfg_ce.mode == "bare" and cfg_ce.pretrain_steps == 10


def test_asymmetric_dataset_uses_adjacent_pairs():
    values = parse_config_text(small_config("noise_kind = asymmetric\n"))
    ds = make_dataset(values)
    flipped = ds.flip_mask
    pairs = {0: 1, 1: 0, 2: 0}
    want = np.array([pairs[c] for c in ds.clean_labels[flipped]])
    assert np.array_equal(ds.noisy_labels[flipped], want)


# ------------------------------------------------------------- CLI

def test_cli_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus = 1\n")
    assert main(["gen", str(cfg)]) == 2
    assert "config error" in capsys.readouterr().err
    for removed in ("lambda_cl", "unlabeled_loss", "lr_drop_epoch"):
        cfg.write_text(f"{removed} = 1\n")
        assert main(["train", str(cfg)]) == 2
        assert f"unknown key {removed!r}" in capsys.readouterr().err


@pytest.mark.parametrize("blob", [b"epochs = 2\n\xff\xfe\n", b"out_dir = a\x00b\n"],
                         ids=["not-utf8", "nul-byte"])
def test_cli_config_that_is_not_text_exits_2(tmp_path, capsys, blob):
    path = tmp_path / "run.cfg"
    path.write_bytes(blob)
    assert main(["gen", str(path)]) == 2
    assert "is not" in capsys.readouterr().err


def test_cli_missing_config_exits_2(tmp_path):
    assert main(["train", str(tmp_path / "nope.cfg")]) == 2


def test_cli_usage_error_exits_2():
    assert main(["not-a-command"]) == 2


def test_cli_gen_writes_csvs(tmp_path, capsys):
    cfg, out_dir = write_config(tmp_path)
    assert main(["gen", cfg]) == 0
    assert os.path.exists(os.path.join(out_dir, "train.csv"))
    assert os.path.exists(os.path.join(out_dir, "test.csv"))
    assert os.path.exists(os.path.join(out_dir, "config_resolved.txt"))
    manifest = open(os.path.join(out_dir, "manifest.txt")).read()
    assert "config_sha256" in manifest and "seed" in manifest


@pytest.mark.parametrize("lines", [
    "noise_ratio = 0.7\nredraw_over_all = false",  # C = 3: bound 2/3
    "noise_ratio = 1",
    "noise_kind = asymmetric\nnoise_ratio = 0.5",
], ids=["strict", "over-all", "asymmetric"])
def test_cli_gen_noise_without_a_true_majority_exits_2(tmp_path, capsys, lines):
    cfg, out_dir = write_config(tmp_path, lines + "\n")
    assert main(["gen", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "C = 3 classes" in err
    assert not os.path.exists(os.path.join(out_dir, "train.csv"))


def test_cli_manifest_build_ignores_the_working_directory_repo(tmp_path, monkeypatch):
    other = tmp_path / "other"
    other.mkdir()
    git = ["git", "-c", "user.name=test", "-c", "user.email=test@example.com"]
    subprocess.run(git + ["init", "-q"], cwd=other, check=True)
    subprocess.run(git + ["commit", "-q", "--allow-empty", "-m", "empty"],
                   cwd=other, check=True)
    foreign = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=other,
                             capture_output=True, text=True, check=True).stdout.strip()
    monkeypatch.chdir(other)
    cfg, out_dir = write_config(tmp_path)
    assert main(["gen", cfg]) == 0
    build = open(os.path.join(out_dir, "manifest.txt")).readline()
    assert build.startswith("build = ") and build != f"build = {foreign}\n"


def test_cli_manifest_build_survives_a_hung_git(tmp_path, monkeypatch):
    def hang(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])

    monkeypatch.setattr(subprocess, "run", hang)
    cfg, out_dir = write_config(tmp_path)
    assert main(["gen", cfg]) == 0
    build = open(os.path.join(out_dir, "manifest.txt")).readline()
    assert build == f"build = codim-{__version__}\n"


def test_importing_the_cli_leaves_subprocess_out():
    """Only the manifest's build id needs ``subprocess``, so importing the
    CLI does not pay for it."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [sys.executable, "-c", "import sys, codim.cli; print('subprocess' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True,
        check=True)
    assert out.stdout.strip() == "False"


def test_cli_pretrain_then_train_with_checkpoint(tmp_path, capsys):
    cfg, out_dir = write_config(tmp_path)
    assert main(["pretrain", cfg]) == 0
    ckpt = os.path.join(out_dir, "pretrain.ckpt")
    assert os.path.exists(ckpt)
    assert os.path.exists(os.path.join(out_dir, "pretrain_loss.csv"))
    assert main(["train", cfg, "--mode", "sup", "--pretrained", ckpt]) == 0
    out = capsys.readouterr().out
    assert "Best:" in out and "Last:" in out
    for artifact in ("net_a.ckpt", "net_b.ckpt", "metrics.csv", "embeddings.svg"):
        assert os.path.exists(os.path.join(out_dir, artifact))


def test_cli_train_repeat_is_byte_identical(tmp_path):
    cfg, out_dir = write_config(tmp_path)
    assert main(["train", cfg, "--mode", "sup"]) == 0
    first = open(os.path.join(out_dir, "metrics.csv"), "rb").read()
    assert main(["train", cfg, "--mode", "sup"]) == 0
    second = open(os.path.join(out_dir, "metrics.csv"), "rb").read()
    assert first == second


def test_cli_train_ce_mode(tmp_path, capsys):
    cfg, out_dir = write_config(tmp_path)
    assert main(["train", cfg, "--mode", "ce"]) == 0
    assert "mode=ce" in capsys.readouterr().out


def test_cli_train_ce_with_pretrained_exits_2_before_the_run_dir(tmp_path, capsys):
    """CE trains from scratch, so a checkpoint for it is a usage error, even
    one that holds only the magic and would never be read."""
    cfg, out_dir = write_config(tmp_path)
    ckpt = tmp_path / "empty.ckpt"
    ckpt.write_bytes(MAGIC)
    assert main(["train", cfg, "--mode", "ce", "--pretrained", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "--pretrained" in err
    assert not os.path.exists(out_dir)


def test_cli_train_dividemix_with_pretrained_exits_2_before_the_run_dir(tmp_path, capsys):
    """dividemix is bare phase 2 without pre-training, so a checkpoint for
    it is a usage error too."""
    cfg, out_dir = write_config(tmp_path)
    ckpt = tmp_path / "empty.ckpt"
    ckpt.write_bytes(MAGIC)
    assert main(["train", cfg, "--mode", "dividemix", "--pretrained", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "--pretrained" in err
    assert "dividemix" in err
    assert not os.path.exists(out_dir)


def test_cli_cssl(tmp_path, capsys):
    cfg, out_dir = write_config(tmp_path)
    assert main(["cssl", cfg, "--labeled-ratio", "0.5"]) == 0
    assert os.path.exists(os.path.join(out_dir, "metrics.csv"))
    assert "labeled_ratio=0.5" in capsys.readouterr().out
    assert main(["cssl", cfg, "--labeled-ratio", "1.5"]) == 2


def test_cli_cssl_zero_labeled_ratio_exits_2_before_the_run_dir(tmp_path, capsys):
    cfg, out_dir = write_config(tmp_path)
    assert main(["cssl", cfg, "--labeled-ratio", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "labeled_ratio" in err
    assert not os.path.exists(out_dir)


def test_cli_cssl_trains_what_train_cssl_trains(tmp_path):
    """codim cssl leaves the labeled subset to train_cssl, so its config
    snapshot, replayed through the library, gives the same metrics bytes."""
    cfg, out_dir = write_config(tmp_path)
    assert main(["cssl", cfg, "--labeled-ratio", "0.3"]) == 0
    values = load_config(os.path.join(out_dir, "config_resolved.txt"))
    assert values["labeled_ratio"] == 0.3 and values["noise_kind"] == "none"
    _, record = train_cssl(make_dataset(values), make_train_config(values))
    record.to_csv(tmp_path / "library.csv")
    assert (open(os.path.join(out_dir, "metrics.csv"), "rb").read()
            == (tmp_path / "library.csv").read_bytes())


def test_cli_partition(tmp_path, capsys):
    rng = np.random.Generator(np.random.PCG64(0))
    losses = np.concatenate([rng.normal(0.1, 0.05, 300),
                             rng.normal(0.9, 0.1, 120)]).clip(0, 2)
    path = tmp_path / "losses.csv"
    path.write_text("index,loss\n" + "\n".join(
        f"{i},{v}" for i, v in enumerate(losses)) + "\n")
    assert main(["partition", str(path)]) == 0
    out_csv = tmp_path / "losses_partition.csv"
    assert out_csv.exists()
    assert "components" in capsys.readouterr().out
    rows = out_csv.read_text().splitlines()
    assert rows[0] == "index,clean_prob,is_clean"
    assert len(rows) == 421


@pytest.mark.parametrize("losses", [[0.5] * 50, [0.1, 0.9, 0.2, 0.8, 0.5]],
                         ids=["constant", "five"])
def test_cli_partition_constant_or_few_losses_falls_back_to_all_clean(tmp_path, capsys,
                                                                       losses):
    path = tmp_path / "flat.csv"
    path.write_text("index,loss\n" + "\n".join(
        f"{i},{v}" for i, v in enumerate(losses)) + "\n")
    assert main(["partition", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"{len(losses)}/{len(losses)} clean" in out and "all clean" in out
    assert "components" not in out
    rows = (tmp_path / "flat_partition.csv").read_text().splitlines()[1:]
    assert [r.split(",")[1:] for r in rows] == [["1.0", "1"]] * len(losses)


def test_cli_report(tmp_path, capsys):
    cfg, out_dir = write_config(tmp_path)
    assert main(["train", cfg, "--mode", "sup"]) == 0
    assert main(["report", out_dir]) == 0
    for svg in ("losses.svg", "accuracy.svg", "diagnostics.svg"):
        assert os.path.exists(os.path.join(out_dir, svg))
    assert "Best:" in capsys.readouterr().out
    assert main(["report", str(tmp_path / "empty")]) == 2


def test_cli_partition_headerless_scientific_first_row(tmp_path):
    path = tmp_path / "losses.csv"
    losses = [1e-05] + [0.1 + 0.001 * i for i in range(300)] + [
        0.9 + 0.001 * i for i in range(120)]
    path.write_text("\n".join(f"{i},{v}" for i, v in enumerate(losses)) + "\n")
    assert main(["partition", str(path)]) == 0
    rows = (tmp_path / "losses_partition.csv").read_text().splitlines()
    assert len(rows) == 1 + 421


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_cli_partition_non_finite_loss_exits_2(tmp_path, capsys, bad):
    path = tmp_path / "losses.csv"
    path.write_text("index,loss\n0,0.1\n1," + bad + "\n2,0.9\n3,0.2\n")
    assert main(["partition", str(path)]) == 2
    assert "finite" in capsys.readouterr().err
    assert not (tmp_path / "losses_partition.csv").exists()


@pytest.mark.parametrize("cell, named", [
    (b"abc", "on line 61: could not convert string 'abc'"),
    (b"", "on line 61: could not convert string ''"),
    (b"#0.7", "on line 61: could not convert string '#0.7'"),
    (b"1_000", "on line 61: could not convert string '1_000'"),
    (b"inf", "finite"), (b"\xff", "not a CSV text file")],
    ids=["word", "empty", "comment-mark", "underscore", "inf", "not-utf8"])
def test_cli_partition_bad_last_row_exits_2_and_writes_nothing(tmp_path, capsys, cell,
                                                               named):
    """``#`` starts no comment, and ``1_000``, which Python's ``float`` reads,
    is not a number to NumPy's reader: both are bad cells."""
    path = tmp_path / "losses.csv"
    path.write_bytes(b"".join(b"%d,%r\n" % (i, 0.1 if i % 3 else 0.9) for i in range(60))
                     + b"60," + cell + b"\n")
    assert main(["partition", str(path)]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "losses_partition.csv").exists()


def _list_based_partition_csv(path, threshold=0.5) -> bytes:
    """``partition.csv`` as `codim partition` wrote it when it held the input
    rows and the output rows as lists: the oracle for the streaming path."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh) if row]
    try:
        float(rows[0][-1])
    except (IndexError, ValueError):
        rows = rows[1:]
    part = partition_losses(np.array([float(r[-1]) for r in rows]), threshold)
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["index", "clean_prob", "is_clean"])
    for row in [[i, p, int(p >= threshold)] for i, p in enumerate(part.clean_prob.tolist())]:
        writer.writerow(row)
    return buf.getvalue().encode()


def _mixture() -> list[float]:
    rng = np.random.Generator(np.random.PCG64(7))
    return rng.permutation(np.concatenate([rng.normal(0.1, 0.05, 90),
                                           rng.normal(0.9, 0.1, 40)])).tolist()


_MIXTURE = _mixture()


@pytest.mark.parametrize("text", [
    "index,loss\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(_MIXTURE)),
    "".join(f"{i},{v!r}\n" for i, v in enumerate(_MIXTURE)),
    "\n\nindex,loss\r\n" + "".join(f"{i},{v!r}\r\n" + "\n" * (i % 3 == 0)
                                    for i, v in enumerate(_MIXTURE)) + "\n\n",
    '"name, tag","loss"\n' + "".join(f'"row {i}, ""x""",{v!r}\n' if i % 2 else
                                      f'row {i},"{v!r}"\n' for i, v in enumerate(_MIXTURE)),
    "loss\n" + "".join(f"{v!r}\n" for v in _MIXTURE),
    "".join(f"{v:.3e}\n" for v in _MIXTURE),
], ids=["header", "no-header", "blank-lines-crlf", "quoted", "one-column",
        "one-column-no-header"])
@pytest.mark.parametrize("threshold", ["0.5", "0.9"])
def test_cli_partition_csv_equals_the_list_based_writer(tmp_path, text, threshold):
    path = tmp_path / "losses.csv"
    path.write_bytes(text.encode())
    assert main(["partition", str(path), "--threshold", threshold]) == 0
    assert ((tmp_path / "losses_partition.csv").read_bytes()
            == _list_based_partition_csv(path, float(threshold)))


def test_cli_partition_memory_is_a_few_floats_per_row(tmp_path, capsys):
    """The input streams into one float array and the output streams out:
    the list-based reader and writer peaked at about 410 bytes a row."""
    n = 50_000
    rng = np.random.Generator(np.random.PCG64(11))
    losses = np.where(rng.random(n) < 0.4, rng.beta(5.0, 2.0, n), rng.exponential(0.05, n))
    path = tmp_path / "losses.csv"
    path.write_text("".join(f"{i},{v!r}\n" for i, v in enumerate(losses.tolist())))
    del losses
    tracemalloc.start()
    try:
        assert main(["partition", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f"/{n} clean" in capsys.readouterr().out
    assert peak / n < 160, f"{peak / n:.0f} bytes per row"


def _csv_reader_losses(path):
    """The losses as `codim partition` read them with ``csv.reader`` and
    ``np.fromiter``, before NumPy's reader: the oracle. None where that
    reader raised."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = filter(None, csv.reader(fh))
            first = next(rows, [])
            try:
                head = [float(first[-1])]
            except (IndexError, ValueError):
                head = []
            return np.fromiter(itertools.chain(head, (float(row[-1]) for row in rows)),
                               dtype=np.float64)
    except (UnicodeDecodeError, csv.Error, ValueError):
        return None


def _csv_cell(text: str, quoted: bool) -> str:
    if quoted or any(c in text for c in ',"'):
        return '"' + text.replace('"', '""') + '"'
    return text


_NUMBER_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(0, 1e6).map("{:.3e}".format),
    st.integers(-10**6, 10**6).map(str),
    st.tuples(st.sampled_from(["", " "]), st.floats(0, 1).map(repr),
              st.sampled_from(["", " ", "\t"])).map("".join))
_TEXT_CELLS = st.text(alphabet='ab1. ,"', max_size=6)
_BAD_CELLS = st.sampled_from(["abc", "", "#0.7", "nan", "inf", " ", "1.5e", "0x10"])


@st.composite
def _losses_csv(draw) -> str:
    """CSV text of loss rows: an optional header, ragged rows whose leading
    cells may hold commas and quotes, quoted cells, blank rows, LF or CRLF
    line ends, and at most one bad last cell."""
    rows = [[*draw(st.lists(_TEXT_CELLS, max_size=3)), draw(_NUMBER_CELLS)]
            for _ in range(draw(st.integers(0, 12)))]
    bad = draw(st.none() | st.integers(0, 11))
    if bad is not None and bad < len(rows):
        rows[bad][-1] = draw(_BAD_CELLS)
    if draw(st.booleans()):
        rows.insert(0, [*draw(st.lists(_TEXT_CELLS, max_size=2)),
                        draw(st.sampled_from(["loss", "loss, x", 'a "b"', "", "value"]))])
    lines = [",".join(_csv_cell(c, draw(st.booleans())) for c in row) for row in rows]
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    return "".join(line + draw(st.sampled_from(["\n", "\r\n"])) for line in lines)


@settings(max_examples=300, deadline=None)
@given(text=_losses_csv())
def test_partition_reader_equals_the_csv_reader(tmp_path_factory, text):
    """NumPy's reader gives the old reader's floats bit for bit, or both
    readers leave `codim partition` to exit 2: a bad cell, no loss or a
    non-finite one."""
    path = tmp_path_factory.mktemp("losses") / "losses.csv"
    path.write_bytes(text.encode())
    want = _csv_reader_losses(path)
    try:
        got = _read_losses(str(path))
    except ConfigError:
        got = None
    if want is None or len(want) == 0 or not np.isfinite(want).all():
        assert got is None or len(got) == 0 or not np.isfinite(got).all()
    else:
        assert got is not None and got.dtype == np.float64
        assert got.tobytes() == want.tobytes()


def test_cli_partition_bad_cell_names_its_file_line(tmp_path, capsys):
    """NumPy counts the rows after the header; the message counts the file's
    lines, with blank lines, CRLF ends and a quoted header cell that spans
    two lines."""
    path = tmp_path / "losses.csv"
    path.write_bytes(b'\r\n\r\n"index\r\nnumber",loss\r\n0,0.1\r\n\r\n1,0.2\r\n'
                     b'\r\n2,0.3\r\n3,x0.4\r\n4,0.5\r\n')
    assert main(["partition", str(path)]) == 2
    assert "on line 10: could not convert string 'x0.4'" in capsys.readouterr().err
    assert not (tmp_path / "losses_partition.csv").exists()


@pytest.mark.parametrize("text", ["", "\n\n", "index,loss\n", '\n"a,b",loss\r\n\r\n'],
                         ids=["empty", "blank-lines", "header-only", "quoted-header-only"])
def test_cli_partition_without_losses_exits_2_and_warns_nothing(tmp_path, capsys, text):
    path = tmp_path / "losses.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["partition", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"config error: {path} needs one or more losses, all finite\n"
    assert not (tmp_path / "losses_partition.csv").exists()


@pytest.mark.parametrize("header, row", [("", "{v!r}\n"), ("", "{i},{v!r}\n"),
                                         ("index,loss\n", "{i},{v!r}\n")],
                         ids=["one-column", "no-header", "header"])
def test_cli_partition_reads_a_utf8_byte_order_mark(tmp_path, capsys, header, row):
    """A leading byte-order mark is no part of the first cell, so a
    headerless first loss is not mistaken for a header and dropped."""
    text = header + "".join(row.format(i=i, v=v) for i, v in enumerate(_MIXTURE[:12]))
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(text.encode())
    bom.write_bytes(codecs.BOM_UTF8 + text.encode())
    assert main(["partition", str(plain)]) == 0
    assert main(["partition", str(bom)]) == 0
    assert "/12 clean" in capsys.readouterr().out.splitlines()[-1]
    rows = (tmp_path / "bom_partition.csv").read_bytes()
    assert rows == (tmp_path / "plain_partition.csv").read_bytes()
    assert rows.splitlines()[1].startswith(b"0,")


def test_config_and_metrics_read_a_utf8_byte_order_mark(tmp_path, capsys):
    cfg, out_dir = write_config(tmp_path)
    text = pathlib.Path(cfg).read_bytes()
    pathlib.Path(cfg).write_bytes(codecs.BOM_UTF8 + text)
    assert load_config(cfg) == parse_config_text(text.decode())
    assert main(["gen", cfg]) == 0
    metrics = _metrics_text([0, 1, 1, 1, 1, 0.5, 0.5, 0.5, 0.9, 0.1],
                            [1, 1, 1, 1, 1, 0.5, 0.5, 0.6, 0.9, 0.1])
    (tmp_path / "metrics.csv").write_bytes(codecs.BOM_UTF8 + metrics.encode())
    capsys.readouterr()
    assert main(["report", str(tmp_path)]) == 0
    assert "2 epochs  Best: 60.00" in capsys.readouterr().out


def test_cli_csv_cells_are_plain_numbers(tmp_path):
    cfg, out_dir = write_config(tmp_path)
    assert main(["gen", cfg]) == 0
    losses = tmp_path / "losses.csv"
    losses.write_text("index,loss\n" + "\n".join(
        f"{i},{0.1 if i % 3 else 0.9 + 0.01 * i}" for i in range(60)) + "\n")
    assert main(["partition", str(losses)]) == 0
    for path in (os.path.join(out_dir, "train.csv"), os.path.join(out_dir, "test.csv"),
                 str(tmp_path / "losses_partition.csv")):
        lines = open(path).read().splitlines()
        assert len(lines) > 1
        for line in lines[1:]:
            for cell in line.split(","):
                float(cell)


def test_cli_out_of_range_config_value_exits_2(tmp_path, capsys):
    cfg, _ = write_config(tmp_path, "lr = 0\n")
    assert main(["train", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "lr = 0.0" in err
    cfg, _ = write_config(tmp_path, "sharpen_t = 2\n")
    assert main(["train", cfg]) == 2
    cfg, _ = write_config(tmp_path, "intra_std = -1\n")
    assert main(["gen", cfg]) == 2


@pytest.mark.parametrize("command, line, key", [
    ("train", "feat_hidden = 0", "feat_hidden"),
    ("train", "feat_hidden = 8,0", "feat_hidden"),
    ("train", "proj_hidden = 0", "proj_hidden"),
    ("train", "proj_dim = 0", "proj_dim"),
    ("train", "lr_drop_factor = 0", "lr_drop_factor"),
    ("train", "num_classes = 0", "num_classes"),
    ("train", "dim = 0", "dim"),
    ("cssl", "samples_per_class = 0", "samples_per_class"),
    ("train", "tau1 = 0", "tau1"),
    ("cssl", "tau2 = 0", "tau2"),
    ("train", "tau3 = 0", "tau3"),
    ("train", "epochs = 0", "epochs"),
    ("train", "label_correction_epochs = 0", "label_correction_epochs"),
    ("train", "seed = -1", "seed"),
    ("gen", "noise_seed = -1", "noise_seed"),
    ("train", "scale_hi = inf", "scale_hi"),
    ("train", "momentum = nan", "momentum"),
    ("train", "weight_decay = inf", "weight_decay"),
    ("train", "lambda_u = inf", "lambda_u"),
    ("train", "mixup_alpha = inf", "mixup_alpha"),
    ("train", "sharpen_t = 1e-320", "sharpen_t"),
    ("train", "lambda_sup = nan", "lambda_sup"),
    ("cssl", "lambda_self = -1", "lambda_self"),
    ("train", "samples_per_class = 2", "samples_per_class"),
    ("gen", "class_separation = inf", "class_separation"),
    ("gen", "intra_std = inf", "intra_std"),
    ("gen", "dataset = rings", "bad value for 'dataset'"),
    ("gen", "out_dir =", "bad value for 'out_dir'"),
    pytest.param("train", "num_classes = 1\nsamples_per_class = 5", "num_classes",
                 id="train-one-class-test-split-num_classes"),
    pytest.param("gen", "num_classes = 1\nnoise_kind = asymmetric", "num_classes",
                 id="gen-one-class-asymmetric-num_classes"),
])
def test_cli_config_value_that_used_to_crash_exits_2(tmp_path, capsys, command, line, key):
    cfg, out_dir = write_config(tmp_path, line + "\n")
    argv = [command, cfg] + (["--mode", "sup"] if command == "train" else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert not os.path.exists(out_dir)


# (command, config lines, the key the message names)
NO_NOISE_CASES = [("gen", "noise_kind = none\nnoise_ratio = nan", "noise_ratio"),
                  ("cssl", "noise_ratio = -1", "noise_ratio"),  # cssl sets noise_kind = none
                  ("gen", "noise_kind = none\nnoise_seed = -1", "noise_seed")]


@pytest.mark.parametrize("command, line, name", NO_NOISE_CASES,
                         ids=[f"{command}-{line}" for command, line, _ in NO_NOISE_CASES])
def test_cli_noise_ratio_is_checked_without_noise(tmp_path, capsys, command, line, name):
    cfg, out_dir = write_config(tmp_path, line + "\n")
    assert main([command, cfg]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {name} = ")
    assert not os.path.exists(out_dir)


# every int and float key, each at values outside any range rule: -1, and
# for a float also nan and inf; a key added to SCHEMA joins without an edit
OUT_OF_RANGE = [(key, bad) for key, (parser, _) in SCHEMA.items() if parser in (int, float)
                for bad in (("-1",) if parser is int else ("-1", "nan", "inf"))]


def test_out_of_range_walk_covers_every_numeric_field():
    walked = {key for key, _ in OUT_OF_RANGE}
    for cls in (BlobSpec, NoiseSpec, AugmentSpec, SslHyper, TrainConfig):
        for f in fields(cls):
            if getattr(f.type, "__name__", f.type) in ("int", "float"):
                assert {f.name, f"data_{f.name}", f"noise_{f.name}"} & walked, f.name


@pytest.mark.parametrize("key, bad", OUT_OF_RANGE, ids=[f"{k}={v}" for k, v in OUT_OF_RANGE])
def test_cli_gen_rejects_every_numeric_key_outside_its_range(tmp_path, capsys, key, bad):
    cfg, out_dir = write_config(tmp_path, f"{key} = {bad}\n")
    assert main(["gen", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and f"{key} = " in err
    assert not os.path.exists(out_dir)


@pytest.mark.parametrize("command", ["gen", "pretrain", "train", "cssl"])
def test_cli_rejected_config_leaves_earlier_run_dir_alone(tmp_path, capsys, command):
    cfg, out_dir = write_config(tmp_path)
    assert main(["gen", cfg]) == 0
    kept = {name: open(os.path.join(out_dir, name), "rb").read()
            for name in ("config_resolved.txt", "manifest.txt")}
    bad, _ = write_config(tmp_path, "seed = 7\nlambda_sup = nan\n")
    assert main([command, bad]) == 2
    assert "lambda_sup" in capsys.readouterr().err
    for name, content in kept.items():
        assert open(os.path.join(out_dir, name), "rb").read() == content, name


@pytest.mark.parametrize("text", [
    "",
    ",".join(RUN_RECORD_HEADER) + "\n",
    ",".join(RUN_RECORD_HEADER) + "\n" + ",".join(["1"] * 9 + ["high"]) + "\n",
    ",".join(RUN_RECORD_HEADER) + "\n" + ",".join(["1"] * 9) + "\n",
    ",".join(RUN_RECORD_HEADER) + "\n" + ",".join(["1"] * 9 + ["nan"]) + "\n",
    ",".join(RUN_RECORD_HEADER) + "\n" + ",".join(["1"] * 4 + ["inf"] + ["1"] * 5) + "\n",
], ids=["empty", "header-only", "non-numeric", "short-row", "nan", "inf"])
def test_cli_report_malformed_metrics_exits_2(tmp_path, capsys, text):
    (tmp_path / "metrics.csv").write_text(text)
    assert main(["report", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "metrics.csv" in err
    assert not (tmp_path / "losses.svg").exists()


def _metrics_text(*rows):
    return "\n".join([",".join(RUN_RECORD_HEADER),
                      *(",".join(map(str, row)) for row in rows)]) + "\n"


@pytest.mark.parametrize("text, named", [
    (_metrics_text([0, 1, 1, 1, 1, 0.5, 0.5, 0.5, 0.9, 0.1],
                   [1, 1, 1, 1, 1, 0.5, 0.5, 7, 0.9, 0.1]), "data row 2: test_acc_ens = 7"),
    (_metrics_text([0, 1, 1, 1, 1, -0.5, 0.5, 0.5, 0.9, 0.1]),
     "data row 1: test_acc_a = -0.5"),
    (_metrics_text([0, 1, 1, 1, 1, 0.5, 0.5, 0.5, 3, 0.1]),
     "data row 1: partition_auc = 3"),
    (_metrics_text([0, 1, 1, 1, 1, 0.5, 0.5, 0.5, 0.9, 1.5]),
     "data row 1: consistency = 1.5"),
    (_metrics_text([0, 1, 1, 1, 1, 0.5, 0.5, 0.5, 0.9, 0.1],
                   [1, 1, 1, 1, 1, 0.5, 0.5, 0.5, 0.9, 0.1],
                   [1, 1, 1, 1, 1, 0.5, 0.5, 0.5, 0.9, 0.1]), "data row 3: epoch 1"),
], ids=["accuracy-above-1", "accuracy-negative", "auc-above-1", "consistency-above-1",
        "repeated-epoch"])
def test_cli_report_out_of_range_metrics_exits_2(tmp_path, capsys, text, named):
    (tmp_path / "metrics.csv").write_text(text)
    assert main(["report", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "metrics.csv" in err and named in err
    assert not list(tmp_path.glob("*.svg"))


def test_cli_pretrained_checkpoint_with_non_utf8_name_exits_3(tmp_path, capsys):
    cfg, _ = write_config(tmp_path)
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(MAGIC + struct.pack("<II", 1, 2) + b"\xff\xfe"
                     + struct.pack("<I", 0) + struct.pack("<d", 1.0))
    assert main(["train", cfg, "--pretrained", str(ckpt)]) == 3
    assert "CheckpointError: name at offset 12" in capsys.readouterr().err


def test_cli_pretrained_checkpoint_of_other_width_exits_3(tmp_path, capsys):
    cfg, out_dir = write_config(tmp_path)
    assert main(["pretrain", cfg]) == 0
    ckpt = os.path.join(out_dir, "pretrain.ckpt")
    wide, _ = write_config(tmp_path, "feat_hidden = 16,16\n")
    assert main(["train", wide, "--pretrained", ckpt]) == 3
    err = capsys.readouterr().err
    assert "CheckpointError" in err and "'feat.0.w'" in err


# ------------------------------------------------------------- one source of defaults

def test_empty_config_gives_dataclass_defaults():
    assert make_train_config(parse_config_text("")) == TrainConfig()


def test_empty_config_dataset_is_default_blobs():
    ds = make_dataset(parse_config_text(""))
    want = gen_blobs(BlobSpec()).with_noise(NoiseSpec("symmetric", 0.4, seed=1))
    assert ds.n == want.n == 2000
    for name in ("x", "clean_labels", "noisy_labels", "flip_mask", "test_x",
                 "test_labels"):
        assert np.array_equal(getattr(ds, name), getattr(want, name))


def test_every_train_field_is_settable_from_config():
    by_hand = {"mode": "cssl", "feat_hidden": "16,8",
               "scale_range": "scale_lo = 0.8\nscale_hi = 1.3"}
    wanted = {"mode": "cssl", "feat_hidden": (16, 8), "scale_range": (0.8, 1.3)}
    for owner, path in ((TrainConfig(), ()), (SslHyper(), ("ssl",)),
                        (AugmentSpec(), ("aug",))):
        for f in fields(owner):
            if f.name in ("ssl", "aug"):
                continue
            default = getattr(owner, f.name)
            if f.name in by_hand:
                line, want = by_hand[f.name], wanted[f.name]
                if "=" not in line:
                    line = f"{f.name} = {line}"
            elif isinstance(default, bool):
                want = not default
                line = f"{f.name} = {want}"
            elif isinstance(default, (int, float)):
                want = default + 1 if isinstance(default, int) else default / 2
                line = f"{f.name} = {want}"
            else:
                raise AssertionError(f"no config line covers field {f.name!r}")
            got = make_train_config(parse_config_text(line + "\n"))
            for attr in path:
                got = getattr(got, attr)
            assert getattr(got, f.name) == want != default, f.name


def test_cli_cssl_snapshot_records_trusted_labels(tmp_path):
    cfg, out_dir = write_config(tmp_path)
    assert main(["cssl", cfg, "--labeled-ratio", "0.5"]) == 0
    snapshot = open(os.path.join(out_dir, "config_resolved.txt")).read()
    assert "noise_kind = none" in snapshot.splitlines()
    assert "mode = cssl" in snapshot.splitlines()
    manifest = open(os.path.join(out_dir, "manifest.txt")).read()
    assert f"config_sha256 = {hashlib.sha256(snapshot.encode()).hexdigest()}" in manifest


def test_cli_bare_snapshot_replays_the_run(tmp_path):
    cfg, out_dir = write_config(tmp_path)
    assert main(["train", cfg, "--mode", "bare"]) == 0
    snapshot = os.path.join(out_dir, "config_resolved.txt")
    assert "mode = bare" in open(snapshot).read().splitlines()
    first = open(os.path.join(out_dir, "metrics.csv"), "rb").read()
    assert main(["train", snapshot]) == 0
    assert open(os.path.join(out_dir, "metrics.csv"), "rb").read() == first


def test_cli_train_lambda_sup_zero_drops_supcon(tmp_path):
    cfg, out_dir = write_config(tmp_path, "lambda_sup = 0\n")
    assert main(["train", cfg, "--mode", "sup"]) == 0
    rows = open(os.path.join(out_dir, "metrics.csv")).read().splitlines()
    col = rows[0].split(",").index("loss_cl")
    assert len(rows) == 3 and all(float(r.split(",")[col]) == 0.0 for r in rows[1:])


@pytest.mark.parametrize("threshold", ["2", "-1", "nan"])
def test_cli_partition_threshold_out_of_range_exits_2(tmp_path, capsys, threshold):
    path = tmp_path / "losses.csv"
    path.write_text("\n".join(f"{i},{0.1 if i % 3 else 0.9}" for i in range(60)) + "\n")
    assert main(["partition", str(path), "--threshold", threshold]) == 2
    assert "threshold" in capsys.readouterr().err
    assert not (tmp_path / "losses_partition.csv").exists()
    # checked before the file is read: a missing file reports the threshold
    assert main(["partition", str(tmp_path / "missing.csv"), "--threshold", threshold]) == 2
    assert (f"threshold = {float(threshold)} must be finite and in [0, 1]"
            in capsys.readouterr().err)


def test_cli_gmm_threshold_out_of_range_exits_2(tmp_path, capsys):
    cfg, out_dir = write_config(tmp_path, "gmm_threshold = 1.5\n")
    assert main(["train", cfg]) == 2
    assert "gmm_threshold" in capsys.readouterr().err
