"""The mutant list of ``tests/mutants.py`` stays applicable: each entry's
text occurs exactly once in its module, which is the runner's "stale"
verdict, checked without running the suite per entry."""

import pytest

from mutants import MUTANTS, matches


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant.name for mutant in MUTANTS])
def test_mutant_matches_its_module_once(mutant):
    assert matches(mutant)
