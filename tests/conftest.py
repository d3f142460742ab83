import pytest

from helpers import standard_catalog


@pytest.fixture(scope="session")
def catalog():
    """Name-to-graph map of the 39 standard plane graphs."""
    return dict(standard_catalog())
