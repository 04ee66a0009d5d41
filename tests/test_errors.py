"""Tests for the exception hierarchy."""

from __future__ import annotations

import pytest

from repro import errors


class TestHierarchy:
    def test_everything_is_repro_error(self):
        for name in errors.__all__:
            if name == "ReproError":
                continue
            exc_class = getattr(errors, name)
            assert issubclass(exc_class, errors.ReproError), name

    def test_schema_family(self):
        assert issubclass(errors.UnknownFunctionError, errors.SchemaError)
        assert issubclass(errors.DuplicateFunctionError,
                          errors.SchemaError)

    def test_update_family(self):
        assert issubclass(errors.ConstraintViolation, errors.UpdateError)
        assert issubclass(errors.NotABaseFunctionError,
                          errors.UpdateError)
        assert issubclass(errors.NotADerivedFunctionError,
                          errors.UpdateError)


class TestMessagesAndAttributes:
    def test_unknown_function_carries_name(self):
        exc = errors.UnknownFunctionError("grade")
        assert exc.name == "grade"
        assert "grade" in str(exc)

    def test_duplicate_function(self):
        exc = errors.DuplicateFunctionError("teach")
        assert "duplicate" in str(exc)

    def test_not_a_base_function(self):
        exc = errors.NotABaseFunctionError("pupil")
        assert "derived function" in str(exc)

    def test_not_a_derived_function(self):
        exc = errors.NotADerivedFunctionError("teach")
        assert "base function" in str(exc)

    def test_parse_error_positions(self):
        plain = errors.ParseError("bad input")
        assert str(plain) == "bad input"
        assert plain.line is None
        with_line = errors.ParseError("bad input", line=3)
        assert "line 3" in str(with_line)
        full = errors.ParseError("bad input", line=3, column=7)
        assert "line 3, column 7" in str(full)
        assert full.column == 7


class TestCatchability:
    def test_single_handler_for_library_errors(self, pupil_db):
        with pytest.raises(errors.ReproError):
            pupil_db.table("zzz")
        with pytest.raises(errors.ReproError):
            pupil_db.table("pupil")
        from repro.lang.parser import parse_statement

        with pytest.raises(errors.ReproError):
            parse_statement("insert f(a b)")
