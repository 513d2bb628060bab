"""Mutants of the package's modules: a copy of a module with one edit to
its source, for the tests that must show their checks can fail."""

import sys
import types
from pathlib import Path


def mutant(module, old, new, share=()):
    """A copy of ``module`` with the one occurrence of ``old`` in its source
    replaced by ``new``.  Each name in ``share`` is then bound back to the
    real module's object, so that inputs built with the real classes pass
    the copy's ``isinstance`` checks; an edit to a shared class is undone."""
    source = Path(module.__file__).read_text(encoding="utf-8")
    assert source.count(old) == 1, old
    copy = types.ModuleType(f"{module.__name__}_mutant")
    copy.__package__ = module.__package__
    sys.modules[copy.__name__] = copy  # the dataclasses look their module up
    try:
        exec(compile(source.replace(old, new), copy.__name__, "exec"), vars(copy))
    finally:
        del sys.modules[copy.__name__]
    for name in share:
        setattr(copy, name, getattr(module, name))
    return copy
