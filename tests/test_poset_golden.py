"""The labelled poset representatives that the census and the
representation search start from, pinned by SHA-256.

Each list is dumped as JSON, one ``[up, name]`` pair per poset in order.
Poset growth keeps, per canonical key, the first labelled poset met, so the
hashes hold which labelling represents each class and the order of the
list, not only the classes.  They were taken while growth still scanned
every mask for the down-sets of the smaller poset.
"""

import hashlib
import json

from qra.order import all_posets, posets_with_at_most_upsets


def _digest(posets) -> str:
    return hashlib.sha256(json.dumps([[p.up, p.name] for p in posets]).encode()).hexdigest()


def test_all_posets_to_six_points():
    posets = all_posets(6)
    assert len(posets) == 1 + 2 + 5 + 16 + 63 + 318
    assert _digest(posets) == "e1985a6b4d88298403ed0414380d3b1d23a260cb64d114a085f34d873c55395e"


def test_posets_with_at_most_twelve_upsets():
    posets = posets_with_at_most_upsets(12)
    assert len(posets) == 341
    assert _digest(posets) == "fdc5171db1a848fedf9e06d6f452a6288e7ea7c625af0bb90dac20b4ed0f9aa7"
