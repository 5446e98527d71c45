"""The fixture that the streaming tests of several modules share."""

import pytest

from dowling import families, triangles


@pytest.fixture
def no_whole_triangle(monkeypatch):
    """Refuse every construction of `triangles.Triangle`, the one container
    of a whole table, for the rest of the test; `families.triangle` is shown
    to fail under it first."""

    def refuse(*args, **kwargs):
        raise AssertionError("built a whole triangle")

    monkeypatch.setattr(triangles.Triangle, "__new__", refuse)
    with pytest.raises(AssertionError, match="built a whole triangle"):
        families.triangle("lah", {}, 3)
