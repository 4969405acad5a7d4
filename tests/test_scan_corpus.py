"""The benchmark's scans return the bits they returned when the pin was
made (``tests/make_scan_corpus.py`` regenerates it)."""

import json

from make_scan_corpus import CORPUS, digests, moved, versions


def test_scan_results_match_the_corpus():
    with open(CORPUS) as fh:
        corpus = json.load(fh)
    made, here = corpus["versions"], versions()
    assert made == here, (
        f"the scan pin was made with Python {made['python']} and numpy "
        f"{made['numpy']}, this run has Python {here['python']} and numpy "
        f"{here['numpy']}; check the results by hand, then regenerate it")
    rerun = {seed: digests(int(seed)) for seed in corpus["seeds"]}
    changed = moved(corpus["seeds"], rerun)
    assert not changed, f"{len(changed)} scan results moved: {changed}"
