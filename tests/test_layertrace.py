"""The layers that ``bench/layertrace.py`` wraps by name must stay in the
library: dropping or renaming one fails here, not only in the benchmark."""

import sys
from pathlib import Path

import pytest


@pytest.fixture
def layertrace(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import layertrace

    return layertrace


def _bindings(layers):
    """Every name bound in an ``abelfourier`` module or in a class the
    tracer wraps, keyed by (owner name, attribute)."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "abelfourier" or name.startswith("abelfourier.")):
            found.update({(name, attr): value for attr, value in vars(module).items()})
    for _, owner, _, _, _ in layers:
        if isinstance(owner, type):
            found.update({(owner.__qualname__, attr): value for attr, value in vars(owner).items()})
    return found


def _key(owner, attr):
    return (owner.__qualname__ if isinstance(owner, type) else owner.__name__, attr)


def test_every_wrapped_layer_resolves(layertrace):
    for layer, owner, attr, _, _ in layertrace._layers():
        target = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        assert target is not None, (layer, attr)


def test_tracer_install_wraps_every_layer_and_uninstall_restores_every_binding(layertrace):
    layers = layertrace._layers()  # imports every module whose names it wraps
    before = _bindings(layers)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        during = _bindings(layers)
    finally:
        tracer.uninstall()
    after = _bindings(layers)
    for layer, owner, attr, _, _ in layers:
        key = _key(owner, attr)
        assert during[key] is not before[key], (layer, key)
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
