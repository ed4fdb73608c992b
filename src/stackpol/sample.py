"""Bundled sample model: a two-route network client with a privileged log."""

from __future__ import annotations

from .model import ProgramModel, parse_model


def running_example_text() -> str:
    """Text of the bundled sample model."""
    # imported here, not with the package: under Python 3.11,
    # importlib.resources loads pathlib, tempfile, shutil and random,
    # which no other call needs
    from importlib import resources

    return (
        resources.files("stackpol")
        .joinpath("data/running_example.model")
        .read_text(encoding="utf-8")
    )


def running_example() -> ProgramModel:
    """Parsed bundled sample model."""
    return parse_model(running_example_text())
