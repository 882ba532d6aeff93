"""Suite-wide fixtures."""

import pytest

from hhbounds import funcspec


@pytest.fixture(autouse=True)
def _empty_sample_record():
    """Each test starts with funcspec's sample record empty, so no result
    depends on which test sampled a phi map before it."""
    funcspec._record = None
