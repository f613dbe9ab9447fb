"""Config parsing and the CLI subcommands, including exit codes and
run-directory artifacts."""

import hashlib
import os
from dataclasses import fields

import numpy as np
import pytest

from codim.cli import main
from codim.config import (SCHEMA, load_config, make_dataset, make_train_config,
                          parse_config_text, resolved_config_text)
from codim.contrastive import AugmentSpec
from codim.data import BlobSpec, gen_blobs
from codim.errors import ConfigError
from codim.mixmatch import SslHyper
from codim.noise import NoiseSpec
from codim.trainers import TrainConfig


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


def write_config(tmp_path, extra=""):
    path = tmp_path / "run.cfg"
    out_dir = tmp_path / "out"
    path.write_text(SMALL_CONFIG + f"out_dir = {out_dir}\n" + extra)
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


def test_bad_value_reports_line_and_key():
    with pytest.raises(ConfigError, match="line 1: bad value for 'epochs'"):
        parse_config_text("epochs = many\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config_text("just some words\n")
    with pytest.raises(ConfigError, match="bad value for 'mode'"):
        parse_config_text("mode = everything\n")


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
    assert ds.num_classes == 3 and ds.flip_mask.sum() == round(0.3 * ds.n)
    cfg = make_train_config(values)
    assert cfg.feat_hidden == (8, 8) and cfg.mode == "sup"
    cfg_dm = make_train_config(values, mode="dividemix")
    assert cfg_dm.mode == "bare" and cfg_dm.pretrain_steps == 0
    cfg_ce = make_train_config(parse_config_text(SMALL_CONFIG + "mode = ce\n"))
    assert cfg_ce.mode == "bare" and cfg_ce.pretrain_steps == 10


def test_asymmetric_dataset_uses_adjacent_pairs():
    values = parse_config_text(SMALL_CONFIG + "noise_kind = asymmetric\n")
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


def test_cli_cssl(tmp_path, capsys):
    cfg, out_dir = write_config(tmp_path)
    assert main(["cssl", cfg, "--labeled-ratio", "0.5"]) == 0
    assert os.path.exists(os.path.join(out_dir, "metrics.csv"))
    assert "labeled_ratio=0.5" in capsys.readouterr().out
    assert main(["cssl", cfg, "--labeled-ratio", "1.5"]) == 2


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


def test_cli_partition_constant_losses_exits_3(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    path.write_text("index,loss\n" + "\n".join(f"{i},0.5" for i in range(50)) + "\n")
    assert main(["partition", str(path)]) == 3
    assert "error" in capsys.readouterr().err


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
    by_hand = {"mode": "cssl", "unlabeled_loss": "ce", "feat_hidden": "16,8",
               "scale_range": "scale_lo = 0.8\nscale_hi = 1.3"}
    wanted = {"mode": "cssl", "unlabeled_loss": "ce", "feat_hidden": (16, 8),
              "scale_range": (0.8, 1.3)}
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
    manifest = open(os.path.join(out_dir, "manifest.txt")).read()
    assert f"config_sha256 = {hashlib.sha256(snapshot.encode()).hexdigest()}" in manifest


@pytest.mark.parametrize("threshold", ["2", "-1", "nan"])
def test_cli_partition_threshold_out_of_range_exits_2(tmp_path, capsys, threshold):
    path = tmp_path / "losses.csv"
    path.write_text("\n".join(f"{i},{0.1 if i % 3 else 0.9}" for i in range(60)) + "\n")
    assert main(["partition", str(path), "--threshold", threshold]) == 2
    assert "threshold" in capsys.readouterr().err
    assert not (tmp_path / "losses_partition.csv").exists()


def test_cli_gmm_threshold_out_of_range_exits_2(tmp_path, capsys):
    cfg, out_dir = write_config(tmp_path, "gmm_threshold = 1.5\n")
    assert main(["train", cfg]) == 2
    assert "gmm_threshold" in capsys.readouterr().err
