"""Every function the benchmark's tracer patches by name still exists.

``perfbench/run.py --trace 1`` looks up each ``qcausal.<module>.<function>``
listed in ``perfbench/tracing.py``'s ``TRACED`` and fails on the first one
that is gone, so a deletion in ``src/`` must not remove any of them.
"""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module_name, function_name",
                         [(m, f) for m, f, _ in _traced()])
def test_traced_function_exists(module_name, function_name):
    module = importlib.import_module(f"qcausal.{module_name}")
    assert callable(getattr(module, function_name, None))


def test_traced_basis_constructor_exists():
    # the tracer also wraps the basis constructor's validation step
    from qcausal.measurements import OrthogonalBasis

    assert callable(OrthogonalBasis.__post_init__)
