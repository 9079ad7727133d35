"""Shared test setup: the helpers' asserts are rewritten like the tests' own,
so that ``python -O`` keeps them as checks."""

import pytest

pytest.register_assert_rewrite("helpers")
