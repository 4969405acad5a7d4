"""Regenerate ``tests/scan_corpus.json``, the pinned results of the scans.

    PYTHONPATH=src python tests/make_scan_corpus.py

For each seed of :data:`SEEDS` the benchmark's ``scans`` op runs once
in process on the inputs its workload draws from that seed
(``bench/workloads.py``: ``scan_inputs`` and ``scans_op``, imported read
only): the separability map, the Bell surface, the 4-free maximiser
and the threshold sweeps of both mixtures.  The file keeps the sha256
of every array and tuple of each result, and the Python and numpy
versions that made the hashes.  ``tests/test_scan_corpus.py`` reruns
every seed against the file.  The script prints each seed and result
key whose hash differs from the file it replaces, so that a change that
moves a scan result on purpose can name it, and why.
"""

import hashlib
import json
import os
import sys

import numpy as np

from make_cli_corpus import BENCH, HERE, versions

CORPUS = os.path.join(HERE, "scan_corpus.json")

SEEDS = (1, 2, 3)


def digest(value) -> str:
    """sha256 of an array's dtype, shape and bytes, or of the JSON text of
    a tuple or list (which spells every float by its shortest repr)."""
    h = hashlib.sha256()
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(json.dumps(value).encode())
    return h.hexdigest()


def digests(seed: int) -> dict:
    """{result key: sha256} of the ``scans`` op at ``seed``."""
    if BENCH not in sys.path:
        sys.path.insert(0, BENCH)
    import cvbell
    from workloads import scan_inputs, scans_op

    result = scans_op(cvbell, scan_inputs(np.random.default_rng(seed)))
    return {key: digest(value) for key, value in result.items()}


def moved(old: dict, new: dict) -> list:
    """One line per (seed, key) whose hash differs between the seed maps
    ``old`` and ``new``, or that only one of them has."""
    lines = []
    for seed in {**old, **new}:
        before, after = old.get(seed, {}), new.get(seed, {})
        lines += [f"seed {seed}: {key}" for key in {**before, **after}
                  if before.get(key) != after.get(key)]
    return lines


def main() -> None:
    seeds = {str(seed): digests(seed) for seed in SEEDS}
    old = {}
    if os.path.exists(CORPUS):
        with open(CORPUS) as fh:
            old = json.load(fh)["seeds"]
    for line in moved(old, seeds):
        print(line)
    with open(CORPUS, "w") as fh:
        json.dump({"versions": versions(), "seeds": seeds}, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(seeds)} seeds to {CORPUS}")


if __name__ == "__main__":
    main()
