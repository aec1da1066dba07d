"""Error hierarchy contracts the CLI exit-code mapping relies on."""

from __future__ import annotations

import pytest

from gnde import errors


ALL_ERRORS = [
    errors.InvalidParameterError,
    errors.WrongRegimeError,
    errors.UnsupportedOperationError,
    errors.ComplexityGuardError,
    errors.InsufficientDataError,
    errors.DimensionMismatchError,
    errors.NonConvergenceError,
    errors.DivergenceError,
    errors.DegenerateReferenceError,
    errors.LogDomainError,
    errors.EdgeListParseError,
    errors.ConfigError,
]


def test_all_derive_from_base():
    for cls in ALL_ERRORS:
        assert issubclass(cls, errors.GndeError), cls
        with pytest.raises(errors.GndeError):
            raise cls("boom")


def test_stdlib_compatibility():
    # value-like errors stay catchable as ValueError, solver failures as
    # RuntimeError, so library users keep their usual except clauses
    assert issubclass(errors.InvalidParameterError, ValueError)
    assert issubclass(errors.ConfigError, ValueError)
    assert issubclass(errors.NonConvergenceError, RuntimeError)
    assert issubclass(errors.DivergenceError, RuntimeError)
    assert issubclass(errors.UnsupportedOperationError, TypeError)


def test_payload_attributes():
    err = errors.NonConvergenceError("stuck", last_time=0.5, contraction=0.99)
    assert err.last_time == 0.5 and err.contraction == 0.99
    assert errors.NonConvergenceError("stuck").last_time is None
    assert errors.DegenerateReferenceError("flat", time=0.25).time == 0.25
    assert errors.EdgeListParseError("bad", line=3).line == 3


NUMERICAL_ERRORS = {
    errors.NonConvergenceError,
    errors.DivergenceError,
    errors.DegenerateReferenceError,
    errors.LogDomainError,
}


def test_cli_exit_mapping(monkeypatch, capsys):
    # numerical failures exit 3, every other library error exits 2
    from gnde import cli

    assert set(errors.GndeError.__subclasses__()) == set(ALL_ERRORS)
    for cls in ALL_ERRORS:
        def boom(args, cfg, cls=cls):
            raise cls("boom")

        monkeypatch.setattr(cli, "cmd_catalog", boom)
        code = cli.entry(["catalog"])
        err = capsys.readouterr().err
        if cls in NUMERICAL_ERRORS:
            assert (code, err) == (3, "gnde: numerical failure: boom\n"), cls
        else:
            assert (code, err) == (2, "gnde: config error: boom\n"), cls
