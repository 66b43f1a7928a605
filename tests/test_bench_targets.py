"""The traced benchmark run (``bench/run.py --trace 1``) wraps piag's
functions by rebinding names in the modules that call them.  A refactor that
renames or removes one of those names would break the traced run, so every
``(module, name)`` that ``bench/spans.py`` lists must resolve to a callable.
"""

import importlib.util
import os

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench", "spans.py")


def _spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    pairs = [(owner, attr) for _, owners, _ in _spans_module().targets()
             for owner, attr in owners]
    assert pairs
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in pairs
               if not callable(getattr(owner, attr, None))]
    assert missing == []
