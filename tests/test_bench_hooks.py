"""The benchmark's traced run wraps module globals by name; every name must still resolve."""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parents[1] / "bench"))
import tracing  # noqa: E402


@pytest.mark.parametrize("span, module, attr", tracing.WRAPPED, ids=lambda v: getattr(v, "__name__", str(v)))
def test_wrapped_name_resolves(span, module, attr):
    assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"
