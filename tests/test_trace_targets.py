"""Every callable the benchmark tracer wraps must exist under ``src/``.

``perfbench/tracer.py`` names its targets by module and attribute path;
a refactor that renames or deletes one breaks ``--trace 1`` runs.  This
reads the target list and resolves each entry the way the tracer does,
without installing anything.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_targets():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _load_targets()


def test_targets_found():
    assert len(TARGETS) >= 30


@pytest.mark.parametrize(
    "name, module_name, path", [(n, m, p) for n, m, p, _ in TARGETS]
)
def test_target_resolves(name, module_name, path):
    owner = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    # the tracer patches the attribute where it is defined, not inherited
    assert parts[-1] in vars(owner), f"{name}: {module_name}.{path} is gone"
    assert callable(vars(owner)[parts[-1]])
