from pathlib import Path

import pytest

from mutants import MUTANTS, REPO


@pytest.mark.parametrize("mutant", MUTANTS, ids=[f"{i}" for i in range(len(MUTANTS))])
def test_every_mutant_applies_at_exactly_one_place(mutant):
    # a mutant whose text moved or repeats would test nothing, or something else, when the runner applies it
    assert (REPO / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.new != mutant.old and mutant.why
