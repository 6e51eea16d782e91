"""Every script in ``examples/`` loads as a module and defines ``main``.

Loading runs an example's imports and module-level code but not
``main()``, so an example that still imports a removed public name fails
here, in about a second, and not only when the examples run end to end.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[1] / "examples").glob("*.py")
)


def test_examples_found():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_loads(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(getattr(module, "main", None))
