"""Flat ``key = value`` run configuration files.

Section-less, ``#`` comments, every key has a documented default, unknown
keys are a hard error so typos never pass silently.
"""

from __future__ import annotations

import os
from dataclasses import fields

from .contrastive import AugmentSpec
from .data import BlobSpec, Dataset, gen_blobs
from .errors import ConfigError, ParameterError
from .mixmatch import SslHyper
from .noise import NOISE_KINDS, NoiseSpec
from .trainers import MODES, TrainConfig


def _bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _path(text: str) -> str:
    if not text:
        raise ValueError("expected a path, got ''")
    return text


def _choice(*options):
    def parse(text: str) -> str:
        if text not in options:
            raise ValueError(f"expected one of {options}, got {text!r}")
        return text
    return parse


# command-line modes beyond MODES -> the TrainConfig fields they set: "ce"
# runs the CE baseline, which ignores mode; "dividemix" is bare phase 2
# without pre-training
MODE_ALIASES = {"ce": {"mode": "bare"},
                "dividemix": {"mode": "bare", "pretrain_steps": 0}}

_PARSERS = {"int": int, "float": float, "bool": _bool}


def _keys(cls, **by_hand) -> dict[str, tuple]:
    """SCHEMA entries for the fields of ``cls``, in field order: a field named
    in ``by_hand`` gives the entries listed there, any other int, float or
    bool field its own type and default; nested specs give none."""
    out = {}
    for f in fields(cls):
        type_name = getattr(f.type, "__name__", f.type)  # str under PEP 563
        if f.name in by_hand:
            out.update(by_hand[f.name])
        elif type_name in _PARSERS:
            out[f.name] = (_PARSERS[type_name], f.default)
    return out


# key -> (parser, default); the scalar fields of the dataclasses give their own
SCHEMA: dict[str, tuple] = {
    "dataset": (_choice("blobs"), "blobs"),
    **_keys(BlobSpec, seed={"data_seed": (int, 0)}),
    **_keys(NoiseSpec, kind={"noise_kind": (_choice(*NOISE_KINDS), "symmetric")},
            ratio={"noise_ratio": (float, 0.4)}, seed={"noise_seed": (int, 1)}),
    **_keys(AugmentSpec, scale_range={"scale_lo": (float, AugmentSpec.scale_range[0]),
                                      "scale_hi": (float, AugmentSpec.scale_range[1])}),
    **_keys(SslHyper),
    **_keys(TrainConfig,
            mode={"mode": (_choice(*MODES, *MODE_ALIASES), TrainConfig.mode)},
            feat_hidden={"feat_hidden": (str, ",".join(map(str, TrainConfig.feat_hidden)))}),
    # run
    "out_dir": (_path, "runs/default"),
}


def parse_config_text(text: str) -> dict:
    values = {key: default for key, (_, default) in SCHEMA.items()}
    seen = {}  # key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: {key!r} is already set on line {seen[key]}")
        seen[key] = lineno
        parser = SCHEMA[key][0]
        try:
            values[key] = parser(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return values


def load_config(path) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
    if "\0" in text:
        raise ConfigError(f"config file {path} is not text: it holds a NUL byte")
    return parse_config_text(text)


def resolved_config_text(values: dict) -> str:
    return "\n".join(f"{key} = {values[key]}" for key in SCHEMA) + "\n"


def _build(cls, values: dict, **given):
    """``cls`` with every field that is not ``given`` read from its key."""
    return cls(**{f.name: values[f.name] for f in fields(cls)
                  if f.name in values and f.name not in given}, **given)


def make_dataset(values: dict) -> Dataset:
    ParameterError.check_value("data_seed", values["data_seed"], ">= 0")
    noise = _build(NoiseSpec, values, kind=values["noise_kind"],
                   ratio=values["noise_ratio"], seed=values["noise_seed"])
    return gen_blobs(_build(BlobSpec, values, seed=values["data_seed"])).with_noise(noise)


def make_train_config(values: dict) -> TrainConfig:
    try:
        feat_hidden = tuple(int(s) for s in values["feat_hidden"].split(","))
    except ValueError as exc:
        raise ConfigError(f"bad feat_hidden {values['feat_hidden']!r}") from exc
    aug = _build(AugmentSpec, values, scale_range=(values["scale_lo"], values["scale_hi"]))
    return _build(TrainConfig, values, **MODE_ALIASES.get(values["mode"], {}),
                  feat_hidden=feat_hidden, ssl=_build(SslHyper, values), aug=aug)
