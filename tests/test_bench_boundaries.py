"""Every name the benchmark's tracer wraps must exist in the library.

``perfbench/tracer.py`` looks each boundary up by name and raises LookupError
under ``--trace 1`` when one is missing; this test catches a renamed or
deleted boundary without running the benchmark.  It only looks the names up:
``Tracer.install`` would patch the modules for the whole test process.
"""

import sys
from pathlib import Path

import pytest

# find() reads the loaded trunclog modules out of sys.modules
import trunclog  # noqa: F401
import trunclog.cli  # noqa: F401

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracer  # noqa: E402

NAMES = (
    [(modname, attr) for _, modname, attr in tracer.BOUNDARIES]
    + [("verify", "verify_theorem"), ("quotient", "_compose_horner")]
    + [("fields", f"Ext2Field.{op}") for op in tracer.EXT2_OPS]
)


@pytest.mark.parametrize("modname, attr", NAMES)
def test_traced_name_exists(modname, attr):
    _, _, value = tracer.find(modname, attr)
    assert callable(value)
