import pytest

from topolab import build_space
from topolab.corpus import spaces_up_to


@pytest.fixture(scope="session")
def e1():
    """Three points, a single open point: the running example."""
    return build_space(3, [{0}])


@pytest.fixture(scope="session")
def sierpinski():
    return build_space(2, [{1}])


@pytest.fixture(scope="session")
def point():
    return build_space(1, [])


@pytest.fixture(scope="session")
def discrete2():
    return build_space(2, [{0}, {1}])


@pytest.fixture(scope="session")
def discrete3():
    return build_space(3, [{0}, {1}, {2}])


@pytest.fixture(scope="session")
def indiscrete2():
    return build_space(2, [])


@pytest.fixture(scope="session")
def classes3():
    """All homeomorphism classes with at most three points."""
    return spaces_up_to(3)


@pytest.fixture(scope="session")
def classes4():
    return spaces_up_to(4)
