"""Tracer: alias rebinding and restore, self time, spans closed on error."""

import importlib
import inspect
import types

import pytest

import layers
from tracer import Tracer


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _modules():
    a = types.ModuleType("a")

    def f(x):
        return x + 1

    a.f = f
    b = types.ModuleType("b")
    b.f = a.f              # from a import f
    c = types.ModuleType("c")
    c.g = a.f              # from a import f as g
    return a, b, c, f


def test_patch_rebinds_every_alias_and_restore_puts_originals_back():
    a, b, c, f = _modules()
    tracer = Tracer()
    wrapper = tracer.patch(a, "f", "a.f", [a, b, c])
    assert a.f is wrapper and b.f is wrapper and c.g is wrapper
    assert b.f(1) == 2 and c.g(2) == 3
    assert tracer.names == ["a.f", "a.f"]
    tracer.restore()
    assert a.f is f and b.f is f and c.g is f


def test_method_patch_and_restore():
    class Stream:
        def split(self, n):
            return [Stream() for _ in range(n)]

    original = Stream.__dict__["split"]
    tracer = Tracer()
    tracer.patch(Stream, "split", "Stream.split")
    assert len(Stream().split(3)) == 3
    assert tracer.count(["Stream.split"]) == 1
    tracer.restore()
    assert Stream.__dict__["split"] is original


def test_self_time_is_duration_minus_children():
    clock = Clock()
    tracer = Tracer(clock)
    mod = types.ModuleType("m")     # calls go through module globals

    def leaf():
        clock.now += 7

    def inner():
        clock.now += 4
        mod.leaf()
        clock.now += 1

    def outer():
        clock.now += 1
        mod.inner()
        clock.now += 2
        mod.inner()
        clock.now += 3

    mod.leaf, mod.inner, mod.outer = leaf, inner, outer
    for name in ("leaf", "inner", "outer"):
        tracer.patch(mod, name, name, [mod])
    mod.outer()
    tracer.restore()

    assert tracer.names == ["outer", "inner", "leaf", "inner", "leaf"]
    assert tracer.parents == [-1, 0, 1, 0, 3]
    assert tracer.durations() == [30.0, 12.0, 7.0, 12.0, 7.0]
    assert tracer.self_times() == [6.0, 5.0, 7.0, 5.0, 7.0]
    assert tracer.inclusive(["inner", "leaf"]) == 24.0
    assert tracer.inclusive(["leaf"]) == 14.0
    assert tracer.self_time("inner") == 10.0
    assert tracer.count(["leaf", "outer"]) == 3


def test_exception_closes_its_span():
    clock = Clock()
    tracer = Tracer(clock)

    def boom():
        clock.now += 2
        raise RuntimeError("boom")

    traced = tracer.wrap(boom, "boom")
    with pytest.raises(RuntimeError):
        traced()
    assert tracer.ends == [2.0]
    tracer.wrap(lambda: None, "after")()
    assert tracer.parents == [-1, -1]


def test_hook_sees_arguments_and_result():
    seen = []

    def hook(args, kwargs):
        return lambda result: seen.append((args, kwargs, result))

    tracer = Tracer()
    tracer.wrap(lambda x, y=0: x * y, "mul", span=False, hook=hook)(3, y=4)
    assert seen == [((3,), {"y": 4}, 12)]
    assert tracer.names == []


def _function_bindings():
    """{(id(owner), attribute): function} over the sdlevy namespaces and classes."""
    pkg = importlib.import_module("sdlevy")
    mods = [pkg] + [importlib.import_module(f"sdlevy.{m}") for m in layers.MODULES]
    rng = importlib.import_module("sdlevy.rng")
    owners = mods + [rng.RngStream] + [
        cls for cls in vars(importlib.import_module("sdlevy.perpetuity")).values()
        if inspect.isclass(cls)]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()
            if inspect.isfunction(v)}


def test_instrument_sdlevy_rebinds_from_imports_and_restores_all():
    import sdlevy.cli as cli
    import sdlevy.decomposition as dec
    import sdlevy.levy as levy
    import sdlevy.operator as op
    import sdlevy.perpetuity as perp
    import sdlevy.rng as rng

    before = _function_bindings()
    tracer = Tracer()
    layers.instrument(tracer)
    try:
        for module, name, home in ((dec, "simulate_path", levy), (op, "simulate_path", levy),
                                   (cli, "sample_gamma", rng), (perp, "decompose", dec)):
            assert getattr(module, name) is getattr(home, name)
            assert getattr(module, name) is not before[(id(home), name)]
        assert rng.RngStream.split is not before[(id(rng.RngStream), "split")]
    finally:
        tracer.restore()
    assert _function_bindings() == before


def test_import_times_sum_self_times_per_package():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:        10 |         10 |     numpy.core",
        "import time:        20 |         30 |   numpy",
        "import time:         5 |          5 |       numpy.linalg",
        "import time:         5 |         10 |     scipy.linalg",
        "import time:         1 |         11 |   scipy",
        "import time:         3 |          3 |   scipy.linalg._x",
        "import time:       100 |        144 | sdlevy.cli",
        "import time:         7 |          7 | jsonschema",
        "import time:         9 |          9 | numpyish",
        "Traceback lines and other noise are ignored",
    ])
    t = layers.import_times(stderr)
    assert t["setup.import_numpy_s"] == pytest.approx(35e-6)
    assert t["setup.import_scipy_s"] == pytest.approx(9e-6)
    assert t["setup.import_sdlevy_s"] == pytest.approx(100e-6)
    assert t["setup.import_jsonschema_s"] == pytest.approx(7e-6)
