"""Every binding that the benchmark's tracer wraps exists in the library.

``perfbench/spans.py`` replaces each ``TARGETS`` entry, a module-level
function or a ``Class.method``, with a recording wrapper.  A rename in
``src/splitlq`` would make the traced run fail; this test makes it fail
the main suite too.  Two targets must not resolve to one function object:
it would be wrapped twice and its calls counted twice.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


TARGETS = _load_spans().TARGETS


def _resolve(target):
    owner = importlib.import_module(target.module)
    if "." in target.attr:
        cls_name, method = target.attr.split(".")
        return vars(getattr(owner, cls_name))[method]
    return getattr(owner, target.attr)


@pytest.mark.parametrize("target", TARGETS,
                         ids=[f"{t.module}.{t.attr}" for t in TARGETS])
def test_trace_target_binding_exists(target):
    assert callable(_resolve(target))
    for site in target.sites or ():
        importlib.import_module(site)


def test_trace_targets_are_distinct_functions():
    seen = {}
    for target in TARGETS:
        name = f"{target.module}.{target.attr}"
        fn = _resolve(target)
        assert id(fn) not in seen, f"{name} is the same function as {seen[id(fn)]}"
        seen[id(fn)] = name
