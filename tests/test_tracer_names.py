"""Every function the benchmark's span recorder wraps still exists.

``perfbench/tracer.py`` resolves each ``(layer, path)`` of ``WRAPPED`` with
``getattr`` and no fallback, so a renamed or deleted function would crash
only the traced benchmark run.  This test imports the file alone and
resolves the names; it installs nothing.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_wrapped() -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


WRAPPED = load_wrapped()


@pytest.mark.parametrize("layer, path", WRAPPED,
                         ids=[f"{layer}.{path}" for layer, path in WRAPPED])
def test_tracer_wrapped_name_resolves(layer, path):
    root = importlib.import_module(f"grasskit.{layer}")
    assert callable(functools.reduce(getattr, path.split("."), root))
