"""The benchmark's tracer (`perfbench/tracer.py`) patches tubekit functions by
name. A rename or removal in `src/` would silently stop a traced layer from
being measured, so every name it hooks must resolve."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    tracer = load_tracer()
    assert tracer.LAYERS
    for mod_name, fn_name, _ in tracer.LAYERS:
        module = importlib.import_module(f"tubekit.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"tubekit.{mod_name}.{fn_name}"


def test_install_patches_and_uninstall_restores():
    tracer_module = load_tracer()
    modules = {mod_name: importlib.import_module(f"tubekit.{mod_name}") for mod_name, _, _ in tracer_module.LAYERS}
    before = {(m, f): getattr(modules[m], f) for m, f, _ in tracer_module.LAYERS}
    tracer = tracer_module.Tracer("test")
    tracer.install()
    try:
        for (m, f), original in before.items():
            assert getattr(modules[m], f) is not original, f"tubekit.{m}.{f} not patched"
    finally:
        tracer.uninstall()
    for (m, f), original in before.items():
        assert getattr(modules[m], f) is original
