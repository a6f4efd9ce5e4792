"""The mutation list of ``tests/mutants.py`` stays applicable: each anchor
occurs exactly once in ``src/cliffex``, so that an edit to the code cannot
leave a mutant silently unapplied.  ``python tests/mutants.py`` runs them."""
import mutants


def test_each_mutant_anchor_occurs_once_in_src():
    assert {name: k for name, k in mutants.anchor_counts().items() if k != 1} == {}


def test_each_mutant_names_its_tests_and_a_real_file():
    for m in mutants.MUTANTS:
        assert m.tests and (mutants.SRC / m.file).is_file(), m.name
        assert m.anchor in (mutants.SRC / m.file).read_text() and m.anchor != m.replacement
    assert len({m.name for m in mutants.MUTANTS}) == len(mutants.MUTANTS)
