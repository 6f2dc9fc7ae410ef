import sys

import pytest

from nested_karlin import gaussian


@pytest.fixture
def orjson_as(monkeypatch):
    """A call ``orjson_as(module)`` makes ``import orjson`` give ``module``,
    or fail when it is None, in this process and in the pool workers it
    forks; the sample CSV writer's cached choice is dropped then, and again
    when the test ends."""
    def use(module):
        monkeypatch.setitem(sys.modules, "orjson", module)
        gaussian._orjson.cache_clear()

    yield use
    gaussian._orjson.cache_clear()
