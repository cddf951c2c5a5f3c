import weakref

import pytest

from slimlat import multifork


@pytest.fixture
def empty_memo(monkeypatch):
    """An empty `build` memo for one test, so that what it counts (builds,
    fork steps, decompositions, peels) does not depend on which stages an
    earlier test left alive, kept by garbage such as a caught exception's
    frames; the old memo is back afterwards."""
    monkeypatch.setattr(multifork, "_built", weakref.WeakValueDictionary())
