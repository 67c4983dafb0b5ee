"""The benchmark's tracer looks up its targets by name at run time, so a
renamed or deleted function would break a traced run without failing any
other test here.  Each target must resolve on the current package."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def acmpts_module(name):
    return importlib.import_module(f"acmpts.{name}")


def test_every_trace_target_resolves():
    tracing = load_tracing()
    for mod_name, fns in tracing.TRACED.items():
        module = acmpts_module(mod_name)
        for fn_name in fns:
            assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"
    mod_name, cls_name, method = tracing.FACES.split(".")
    cls = getattr(acmpts_module(mod_name), cls_name, None)
    assert callable(getattr(cls, method, None)), tracing.FACES
    for mod_name in tracing.RANK_LAYERS:
        assert callable(getattr(acmpts_module(mod_name), "rank_int", None)), mod_name
