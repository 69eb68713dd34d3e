"""The one image of a bitmask set under a point map, ``iso.set_image``, and
the one set of conversions between a set's three forms in ``qra.order``
(a Python int, a row of 64-bit words, a boolean row), against plain loops.

Widths run past one and past four 64-bit words.  A map is read through a
sequence that fails on any point outside the set, so an image that reads
the map elsewhere fails here even where its result would be right.
"""

import random

import numpy as np
import pytest

from qra.iso import set_image
from qra.order import (
    bools_to_words,
    masks_to_words,
    row_masks,
    word_width,
    words_to_bools,
    words_to_masks,
)

POINTS = (0, 1, 7, 63, 64, 65, 130, 255, 256, 257, 320)


class OnlyAt:
    """A map that may be read only at the points of ``mask``; every other
    entry is -1, as in a partial map, and reading it fails."""

    def __init__(self, f, mask):
        self.f, self.mask = f, mask

    def __len__(self):
        return len(self.f)

    def __getitem__(self, x):
        assert (self.mask >> x) & 1, f"read the map at {x}, outside the set"
        return self.f[x]


def plain_image(mask, f):
    out = 0
    for x in range(len(f)):
        if (mask >> x) & 1:
            out |= 1 << f[x]
    return out


def plain_words(mask, width):
    return [(mask >> (64 * w)) & (2**64 - 1) for w in range(width)]


def random_mask(rng, points):
    return rng.getrandbits(points) if points else 0


@pytest.mark.parametrize("points", POINTS)
def test_set_image_matches_a_plain_loop(points):
    rng = random.Random(points)
    for larger in (0, 1, 64, 300):
        carrier = points + larger
        for _ in range(20):
            f = [rng.randrange(carrier) for _ in range(points)] if carrier else []
            mask = random_mask(rng, points)
            partial = [y if (mask >> x) & 1 else -1 for x, y in enumerate(f)]
            assert set_image(mask, OnlyAt(partial, mask)) == plain_image(mask, f)


def test_set_image_of_the_empty_set_reads_nothing():
    assert set_image(0, OnlyAt([-1] * 300, 0)) == 0
    assert set_image(0, []) == 0


def test_set_image_of_a_permutation_is_a_permutation_of_bits():
    rng = random.Random(1)
    for points in (5, 64, 200):
        perm = list(range(points))
        rng.shuffle(perm)
        mask = random_mask(rng, points)
        assert set_image(mask, perm).bit_count() == mask.bit_count()
        inverse = [0] * points
        for x, y in enumerate(perm):
            inverse[y] = x
        assert set_image(set_image(mask, perm), inverse) == mask


@pytest.mark.parametrize("points", POINTS)
def test_conversions_match_plain_loops(points):
    rng = random.Random(1000 + points)
    width = word_width(points)
    assert width == max(1, (points + 63) // 64)
    masks = [0, (1 << points) - 1] + [random_mask(rng, points) for _ in range(30)]
    words = masks_to_words(masks, width)
    assert words.shape == (len(masks), width) and words.dtype == np.dtype("<u8")
    assert words.tolist() == [plain_words(m, width) for m in masks]
    assert words_to_masks(words) == tuple(masks)
    member = words_to_bools(words, points)
    assert member.dtype == bool and member.shape == (len(masks), points)
    assert member.tolist() == [[bool((m >> j) & 1) for j in range(points)] for m in masks]
    assert bools_to_words(member).tolist() == words.tolist()
    assert row_masks(member) == tuple(masks)


@pytest.mark.parametrize("width", (1, 2, 4, 5))
def test_round_trips_at_several_word_widths(width):
    rng = random.Random(width)
    for points in (64 * width - 63, 64 * width - 1, 64 * width):
        assert word_width(points) == width
        masks = [random_mask(rng, points) for _ in range(25)]
        words = masks_to_words(masks, width)
        member = words_to_bools(words, points)
        back = bools_to_words(member)
        assert back.shape == words.shape
        assert words_to_masks(back) == tuple(masks)
        # the full word row unpacks to the set and zeros past it
        full = words_to_bools(words, 64 * width)
        assert (full[:, points:] == 0).all() and (full[:, :points] == member).all()


def test_bools_to_words_packs_the_last_axis_of_any_array():
    rng = np.random.default_rng(7)
    member = rng.random((3, 4, 130)) < 0.5
    words = bools_to_words(member)
    assert words.shape == (3, 4, 3)
    for index in np.ndindex(3, 4):
        want = sum(1 << j for j in np.flatnonzero(member[index]).tolist())
        assert words[index].tolist() == plain_words(want, 3)
    # a transposed, not contiguous, argument packs the same
    assert (bools_to_words(member.transpose(1, 0, 2)) == words.transpose(1, 0, 2)).all()


def test_empty_forms():
    assert words_to_masks(masks_to_words([], 2)) == ()
    assert masks_to_words([0], 1).tolist() == [[0]]
    assert bools_to_words(np.zeros((2, 0), dtype=bool)).tolist() == [[0], [0]]
    assert words_to_bools(masks_to_words([5], 1), 0).shape == (1, 0)


def test_boolean_rows_are_a_view_not_a_copy():
    words = masks_to_words([(1 << 200) - 1] * 4, 4)
    member = words_to_bools(words, 200)
    assert member.base is not None and member.base.dtype == np.uint8
