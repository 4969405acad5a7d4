"""Every command of the pinned corpus prints the bytes it printed when
the corpus was made (``tests/make_cli_corpus.py`` regenerates it)."""

import json

from make_cli_corpus import CORPUS, entry, versions


def test_cli_output_matches_the_corpus():
    with open(CORPUS) as fh:
        corpus = json.load(fh)
    made, here = corpus["versions"], versions()
    assert made == here, (
        f"the corpus was made with Python {made['python']} and numpy "
        f"{made['numpy']}, this run has Python {here['python']} and numpy "
        f"{here['numpy']}; check the outputs by hand, then regenerate it")
    moved = [" ".join(pinned["argv"]) for pinned in corpus["commands"]
             if entry(pinned["argv"]) != pinned]
    assert not moved, f"{len(moved)} commands print other bytes: {moved}"
