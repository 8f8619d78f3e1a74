"""The corpus sweep's smallest spaces against the committed digests (``tests/sweep.py``)."""

import sweep


def test_the_smallest_spaces_of_the_corpus_sweep_match_their_digests():
    # Spaces 2 and 3 of every machine, and binary_counter's far longer chains
    # at space 6: 209 cases, each also checked against _successor_det, and up
    # to sweep.EXPLICIT_ROWS rows against the Gram's explicit arrays.
    spaces = {name: [2, 3] for name in sweep.SPACES}
    spaces["binary_counter"].append(6)
    assert sweep.first_difference(spaces) is None
