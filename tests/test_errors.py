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
