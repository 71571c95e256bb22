import pytest

from twistedlie import e6


@pytest.fixture(scope="session")
def suite():
  """The heavy E6 suite, built once per test session."""
  return e6.E6Suite()
