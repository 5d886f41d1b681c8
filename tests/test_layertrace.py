"""The bench tracer's targets name functions that exist in the package."""

from __future__ import annotations

import functools
import importlib
import importlib.util
import pathlib

import pytest

LAYERTRACE = pathlib.Path(__file__).resolve().parent.parent / "bench" / "layertrace.py"


def load_targets() -> tuple:
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("target", load_targets(), ids=".".join)
def test_traced_target_resolves(target):
    # A method is traced as "Class.method" on its class.
    module, attr = target
    owner = importlib.import_module(f"weylgpd.{module}")
    assert callable(functools.reduce(getattr, attr.split("."), owner))
