"""conftest.py's collection hook, run on throwaway test files."""

pytest_plugins = "pytester"

_MARKED = """
import pytest
from hypothesis import given, strategies as st

@pytest.mark.filterwarnings("error")
@given(st.integers())
def test_given_with_errors(i):
    assert i < 5
"""

_ALLOWED = """
import warnings

import pytest
from hypothesis import given, strategies as st

@pytest.mark.filterwarnings("ignore::DeprecationWarning")
@given(st.integers())
def test_given_ignoring(i):
    pass

@given(st.integers())
def test_given_with_errors_in_the_body(i):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert i == i

@pytest.mark.filterwarnings("error::UserWarning")
def test_plain_with_errors():
    pass
"""


def test_a_hypothesis_test_under_a_warnings_as_errors_mark_fails_collection(pytester):
    # without the hook the failing example ends the session with an
    # INTERNALERROR
    pytester.makepyfile(test_marked=_MARKED, test_allowed=_ALLOWED)
    result = pytester.runpytest("-p", "conftest", "-p", "no:cacheprovider",
                                "--continue-on-collection-errors")
    result.assert_outcomes(passed=3, errors=1)
    result.stdout.fnmatch_lines(["*ERROR collecting test_marked.py*",
                                 "*test_marked.py::test_given_with_errors*"])
    assert "INTERNALERROR" not in result.stdout.str()
