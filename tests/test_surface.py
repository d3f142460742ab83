"""Every public name and every function the bench tracer wraps resolves.

``bench/tracer.py`` replaces the functions it names to time them, so a
rename or deletion in facet would otherwise surface only as a failed
``--trace 1`` run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import facet

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [pair for pairs in module.TARGETS.values() for pair in pairs]


@pytest.mark.parametrize("module_name, attr", _tracer_targets())
def test_tracer_target_resolves(module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        # the tracer reads the raw class attribute, not an inherited one
        assert attr in vars(getattr(owner, cls_name))
    else:
        assert callable(getattr(owner, attr))


def test_public_names_resolve():
    missing = [name for name in facet.__all__ if not hasattr(facet, name)]
    assert missing == []
