import importlib.util
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("suite", max_examples=60, deadline=None,
                          derandomize=True)
settings.load_profile("suite")

COPRIME_DEMO = Path(__file__).resolve().parent.parent / "demos" / "06_height_vs_coprime.py"


@pytest.fixture(scope="session")
def max_coprime_subset():
    """The coprime-subset search of demo 06, which is its only user; the
    demo is loaded by path, its script body behind a __main__ guard."""
    spec = importlib.util.spec_from_file_location("height_vs_coprime", COPRIME_DEMO)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.max_coprime_subset
