"""The error contract: every codim error is a ``CodimError`` whose type
sets the command line's exit code, and nothing else is turned into one."""

import inspect

import pytest

from codim import cli, errors
from codim.errors import CodimError, ConfigError, ParameterError


def test_every_error_is_a_codim_error_with_its_exit_code():
    classes = [obj for _, obj in inspect.getmembers(errors, inspect.isclass)
               if obj.__module__ == errors.__name__]
    assert {ConfigError, ParameterError, errors.CheckpointError} < set(classes)
    for cls in classes:
        assert issubclass(cls, CodimError), cls.__name__
        assert issubclass(cls, ValueError), cls.__name__
        want = 2 if cls in (ConfigError, ParameterError) else 3
        assert cls.exit_code == want, cls.__name__


@pytest.mark.parametrize("raised, code, prefix", [
    (ParameterError("tau1 = 0.0 must be positive"), 2, "config error: tau1"),
    (ConfigError("bad key"), 2, "config error: bad key"),
    (errors.DegenerateInputError("nan loss"), 3, "error: DegenerateInputError: nan loss"),
    (FileNotFoundError("no such file"), 3, "error: FileNotFoundError: no such file"),
])
def test_exit_code_comes_from_the_error_type(tmp_path, monkeypatch, capsys,
                                              raised, code, prefix):
    def fail(values):
        raise raised
    monkeypatch.setattr(cli, "make_dataset", fail)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"out_dir = {tmp_path / 'out'}\n")
    assert cli.main(["gen", str(cfg)]) == code
    assert capsys.readouterr().err.startswith(prefix)


def test_a_bug_propagates_as_a_traceback(tmp_path, monkeypatch):
    def buggy(values):
        raise TypeError("unsupported operand")
    monkeypatch.setattr(cli, "make_dataset", buggy)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"out_dir = {tmp_path / 'out'}\n")
    with pytest.raises(TypeError, match="unsupported operand"):
        cli.main(["gen", str(cfg)])


# rule -> values it accepts, values it rejects besides nan, +-inf and -1
RULE_CASES = {
    ">= 0": ((0, 0.0, 3.5), (-1e-300,)),
    "> 0": ((1, 1e-320), (0, 0.0)),
    ">= 1": ((1, 10 ** 400), (0, 0.5)),
    "in [0, 1]": ((0, 0.0, 0.5, 1.0), (-0.1, 1.0 + 1e-12)),
    "in (0, 1]": ((1e-320, 1.0), (0.0, 1.5)),
    "invertible": ((1e-300, 10.0), (0.0, 1e-320)),
}


def test_range_rule_cases_cover_the_table():
    assert set(RULE_CASES) == set(errors._RULES)


@pytest.mark.parametrize("rule", RULE_CASES)
def test_every_range_rule_rejects_nan_inf_and_minus_one(rule):
    good, bad = RULE_CASES[rule]
    for v in good:
        ParameterError.check_value("v", v, rule)
    for v in (*bad, -1, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ParameterError, match=f"^v = {v} must be "):
            ParameterError.check_value("v", v, rule)


def test_range_message_says_finite_only_for_a_float():
    with pytest.raises(ParameterError, match=r"^epochs = 0 must be >= 1$"):
        ParameterError.check_value("epochs", 0, ">= 1")
    with pytest.raises(ParameterError, match=r"^threshold = nan must be finite and in \[0, 1\]$"):
        ParameterError.check_value("threshold", float("nan"), "in [0, 1]")
