"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def counting(monkeypatch):
    """Record the calls of a function whichever ``minsurf`` namespace makes them.

    ``counting(module, name)`` rebinds ``module.name`` in ``module`` and in
    every ``minsurf`` module that holds the same object, for the duration of
    the test, and returns the list that gets one ``(args, kwargs)`` entry
    per call.
    """

    def count(module, name):
        original = getattr(module, name)
        calls = []

        def wrapper(*args, **kwargs):
            calls.append((args, kwargs))
            return original(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod is module or mod_name.startswith("minsurf"):
                if getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, wrapper)
        return calls

    return count
