"""The corpus sweep's smallest spaces against the committed digests (``tests/sweep.py``)."""

import sweep


def test_the_smallest_spaces_of_the_corpus_sweep_match_their_digests():
    # Spaces 2 and 3 of every machine: 88 cases, each also checked against
    # _successor_det and the Gram's explicit arrays.
    assert sweep.first_difference({name: range(2, 4) for name in sweep.SPACES}) is None
