"""Bundled catalog of the named DInFL-algebras up to cardinality six.

Each entry records a Hasse diagram with decorated nodes:

* ``covers``: cover pairs (lower, upper) on node ids ``0..n-1``;
* ``labels``: one string per node id; ``=``-separated tokens either name
  the node (single characters ``1 0 a b c d``) or assert a product equal
  to the node (two characters, e.g. ``ab``, ``a2`` for a squared, ``T0``
  for top times the element named 0);
* ``styles``: one character per node id; ``i`` central idempotent,
  ``o`` central non-idempotent, ``I`` noncentral idempotent,
  ``O`` noncentral non-idempotent.  Central means commuting with every
  element; an algebra is commutative exactly when no square nodes occur.

The element named ``0`` (the bottom when no node carries that name) fixes
the linear negations.  Unlabelled products follow by deduction alone from
the unit law, idempotence, commutativity, annihilation by the lattice
bottom, and monotone interpolation; there is no completion search, and a
cell still open after that is a diagram error.

Names follow the ``D{n}_{m}_{i}[_{k}]`` scheme: n the cardinality, m the
involutive-lattice class, i the index inside the class, and k (when
present) the number of distinct De Morgan negations the algebra admits.
"""

CATALOG_ENTRIES = [
    ("D1_1_1", [], [""], "i"),
    ("D2_1_1", [(0, 1)], ["", "1"], "ii"),
    ("D3_1_1", [(0, 1), (1, 2)], ["a2", "a", "1"], "ioi"),
    ("D3_1_2", [(0, 1), (1, 2)], ["", "1=0", ""], "iii"),
    ("D4_1_1", [(0, 1), (1, 2), (2, 3)], ["ab", "b", "a", "1"], "ioii"),
    ("D4_1_2", [(0, 1), (1, 2), (2, 3)], ["ab", "b=a2", "a", "1"], "iooi"),
    ("D4_1_3", [(0, 1), (1, 2), (2, 3)], ["", "0", "1", "T0"], "iiii"),
    ("D4_1_4", [(0, 1), (1, 2), (2, 3)], ["", "1", "0", "02"], "iioi"),
    ("D4_2_1_2", [(0, 1), (0, 2), (1, 3), (2, 3)], ["ab", "a", "b", "1"], "iiii"),
    ("D4_2_2", [(0, 1), (0, 2), (1, 3), (2, 3)], ["", "1=02", "0", "T0"], "iioi"),
    ("D4_2_3", [(0, 1), (0, 2), (1, 3), (2, 3)], ["", "1", "0", "02"], "iioi"),
    ("D4_3_1", [(0, 1), (0, 2), (1, 3), (2, 3)], ["a2", "1=0", "a=Ta", ""], "iioi"),
    ("D4_3_2", [(0, 1), (0, 2), (1, 3), (2, 3)], ["", "1=0=a2", "a", "Ta"], "iioi"),
    ("D5_1_1", [(0, 1), (1, 2), (2, 3), (3, 4)], ["b2=ac", "c", "b=ab", "a", "1"], "iooii"),
    ("D5_1_2", [(0, 1), (1, 2), (2, 3), (3, 4)], ["b2=ac", "c=ab=a2", "b", "a", "1"], "ioooi"),
    ("D5_1_3", [(0, 1), (1, 2), (2, 3), (3, 4)], ["b2=ac", "c=ab", "b=a2", "a", "1"], "ioooi"),
    ("D5_1_4", [(0, 1), (1, 2), (2, 3), (3, 4)], ["", "0=a2", "a", "1", "T0"], "iioii"),
    ("D5_1_5", [(0, 1), (1, 2), (2, 3), (3, 4)], ["a2", "0", "a=T0=Ta", "1", ""], "iooii"),
    ("D5_1_6", [(0, 1), (1, 2), (2, 3), (3, 4)], ["", "b=ab", "1=0", "a", "Tb"], "iiiii"),
    ("D5_1_7", [(0, 1), (1, 2), (2, 3), (3, 4)], ["", "1", "a", "0", "0a"], "iiioi"),
    ("D5_1_8", [(0, 1), (1, 2), (2, 3), (3, 4)], ["", "1", "a", "0=a2", "0a"], "iiooi"),
    ("D6_1_1", [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], ["bc=ad", "d", "c=ac", "b", "a", "1"], "iooiii"),
    ("D6_1_2", [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], ["bc=ad", "d=b2", "c=ac=ab", "b", "a", "1"], "ioooii"),
    ("D6_1_3", [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], ["bc=ad", "d", "c=b2=ac", "b=ab", "a", "1"], "ioooii"),
    ("D6_1_4", [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], ["bc=ad", "d=ac", "c", "b=a2", "a", "1"], "iooioi"),
    ("D6_1_5", [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], ["bc=ad", "d=b2=ac=a2", "c", "b", "a", "1"], "iooooi"),
    ("D6_1_6", [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], ["bc=ad", "d=b2=ac=ab", "c=a2", "b", "a", "1"], "iooooi"),
    ("D6_1_7", [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], ["bc=ad", "d=b2=ac", "c=ab", "b=a2", "a", "1"], "iooooi"),
    ("D6_1_8", [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], ["", "0=ab", "b", "a", "1", "T0"], "iioiii"),
    ("D6_1_9", [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], ["ab", "0", "b=T0=Tb", "a=Ta", "1", ""], "iooiii"),
    ("D6_1_10", [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], ["", "0=ab", "b=a2", "a", "1", "T0"], "iiooii"),
    ("D6_1_11", [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], ["ab", "0", "b=a2=T0=Tb", "a=Ta", "1", ""], "ioooii"),
    ("D6_1_12", [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], ["", "b=ab", "0", "1", "a=a0", "Tb"], "iiiiii"),
    ("D6_1_13", [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], ["", "b=0b=ab", "1", "0", "a=02", "Tb"], "iiioii"),
    ("D6_1_14", [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], ["", "b", "1", "0=0b=ab", "a", "02=Tb"], "iiiooi"),
    ("D6_1_15", [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], ["", "1", "b", "a=ab", "0", "a2=0b"], "iiiooi"),
    ("D6_1_16", [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], ["", "1", "b", "a=b2", "0=ab", "a2=0b"], "iioooi"),
    ("D6_1_17", [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)], ["", "1", "b", "a", "0=b2=ab", "a2=0b"], "iioooi"),
    ("D6_2_1_2", [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)], ["bc=ad", "d", "b", "c", "a", "1"], "ioiiii"),
    ("D6_2_2", [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)], ["bc=ad", "d=b2=ab", "b", "c=a2", "a", "1"], "iooioi"),
    ("D6_2_3_2", [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)], ["bc=ad", "d=b2=c2=a2", "b", "c", "a", "1"], "iooooi"),
    ("D6_2_4_2", [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)], ["", "0=ab", "a", "b", "1", "T0"], "iiiiii"),
    ("D6_2_5", [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)], ["ba", "0=0b=a0=ab", "a=0T=aT", "b=T0=Tb", "1", "bT=Ta"], "iOIIiI"),
    ("D6_2_6", [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)], ["", "b=0b=ab", "1=02", "0", "a=a0", "Tb"], "iiioii"),
    ("D6_2_7", [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)], ["", "b=0b=ab", "1", "0", "a=02=a0", "Tb"], "iiioii"),
    ("D6_2_8", [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)], ["", "b", "1", "0=0b=ab", "a", "02=Tb"], "iiiooi"),
    ("D6_2_9_2", [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)], ["", "1", "a", "b", "0=ab", "a2=b2"], "iioooi"),
    ("D6_3_1_2", [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)], ["b2=c2=ad", "d=bc=ab=a2", "b", "c", "a", "1"], "iooooi"),
    ("D6_3_2", [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)], ["", "c=bc=b2=ac", "1=0", "b=ab", "a", "Tc"], "iiioii"),
    ("D6_3_3", [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)], ["", "c=bc=ac", "1=0=b2", "b", "a=ab", "Tc"], "iiioii"),
    ("D6_3_4", [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)], ["b2", "c=ac", "1=0", "b=ab=Tc=Tb", "a", ""], "ioioii"),
    ("D6_3_5_2", [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)], ["", "1", "a", "b", "0", "ab=0a"], "iiiioi"),
    ("D6_3_6", [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)], ["", "1", "a", "b", "0=b2", "ab=0a"], "iiiooi"),
    ("D6_3_7_2", [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4), (4, 5)], ["", "1", "a", "b", "0=a2=b2", "ab=0a"], "iioooi"),
    ("D6_4_1", [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)], ["ad=bc", "c=a2", "d=ab=bd", "a", "b", "1"], "iiooii"),
    ("D6_4_2", [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)], ["b0=ab", "b=Tb", "0", "1", "a=a0=Ta", ""], "iiiiii"),
    ("D6_4_3", [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)], ["ab", "0", "b=Tb", "a=02=Ta", "1", ""], "iooiii"),
    ("D6_4_4", [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)], ["ab", "0", "b=02=a2=Tb", "a=T0=Ta", "1", ""], "ioooii"),
    ("D6_4_5", [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)], ["", "1", "b=ab", "a", "0", "a0=0b"], "iiiioi"),
    ("D6_4_6", [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)], ["", "b=ab", "1", "0", "a=b2", "0b=0a"], "ioioii"),
    ("D6_4_7", [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)], ["", "b=ab", "1", "0", "a", "b2=0a"], "ioioii"),
    ("D6_4_8", [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)], ["", "1", "b", "a", "0=b2=ab", "a2=a0=0b"], "iioooi"),
    ("D6_4_9", [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)], ["", "b", "1", "0=ab", "a=b2", "0b=0a=a2"], "ioiooi"),
    ("D6_4_10", [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5)], ["", "b", "1", "0=ab", "a", "b2=0a=a2"], "ioiooi"),
]

# Second De Morgan negation for the names carrying k = 2, and the one
# noncommutative algebra whose only neg differs from tilde.  The value
# ("x", "y") pins the variant by neg(x) = y on the named elements.
SECOND_NEG = {
    "D4_2_1_2": ("a", "a"),
    "D6_2_1_2": ("b", "b"),
    "D6_2_3_2": ("b", "b"),
    "D6_2_4_2": ("a", "a"),
    # tilde already swaps a and b here, so the second negation is the one
    # fixing them (the swap is the tilde variant)
    "D6_2_9_2": ("a", "a"),
    "D6_3_1_2": ("b", "c"),
    "D6_3_5_2": ("a", "b"),
    "D6_3_7_2": ("a", "b"),
}
ONLY_NEG = {
    "D6_2_5": ("a", "a"),
}

# Representability status per (name, neg description).  neg "~" is the
# variant with neg equal to tilde; otherwise the key from SECOND_NEG /
# ONLY_NEG above.  Statuses:
#   finite            a finite base poset representation is known
#   representable     a representation is known, finiteness not asserted
#   open              no known representation
#   must_be_infinite  no known representation; a representation, if one
#                     exists, cannot use a finite base poset
FINITE = "finite"
REPRESENTABLE = "representable"
OPEN = "open"
MUST_BE_INFINITE = "must_be_infinite"

REPRESENTABILITY = {
    ("D1_1_1", "~"): (FINITE, "finite representation known"),
    ("D2_1_1", "~"): (FINITE, "finite representation known"),
    ("D3_1_1", "~"): (MUST_BE_INFINITE, "no known representation; must be infinite if it exists"),
    ("D3_1_2", "~"): (FINITE, "finite representation known"),
    ("D4_1_1", "~"): (MUST_BE_INFINITE, "no known representation; must be infinite if it exists"),
    ("D4_1_2", "~"): (MUST_BE_INFINITE, "no known representation; must be infinite if it exists"),
    ("D4_1_3", "~"): (FINITE, "infinite and finite representations known"),
    ("D4_1_4", "~"): (FINITE, "finite representation known"),
    ("D4_2_1_2", "~"): (FINITE, "finite representation known"),
    ("D4_2_1_2", "a=a"): (FINITE, "finite representation known"),
    ("D4_2_2", "~"): (FINITE, "finite representation known"),
    ("D4_2_3", "~"): (FINITE, "finite representation known"),
    ("D4_3_1", "~"): (OPEN, "no known representation"),
    ("D4_3_2", "~"): (FINITE, "finite representation known"),
    ("D5_1_1", "~"): (MUST_BE_INFINITE, "no known representation; must be infinite if it exists"),
    ("D5_1_2", "~"): (MUST_BE_INFINITE, "no known representation; must be infinite if it exists"),
    ("D5_1_3", "~"): (MUST_BE_INFINITE, "no known representation; must be infinite if it exists"),
    ("D5_1_4", "~"): (MUST_BE_INFINITE, "no known representation; must be infinite if it exists"),
    ("D5_1_5", "~"): (MUST_BE_INFINITE, "no known representation; must be infinite if it exists"),
    ("D5_1_6", "~"): (FINITE, "infinite and finite representations known"),
    ("D5_1_7", "~"): (FINITE, "finite representation known"),
    ("D5_1_8", "~"): (FINITE, "finite representation known"),
    ("D6_1_1", "~"): (MUST_BE_INFINITE, "no known representation; must be infinite if it exists"),
    ("D6_1_2", "~"): (MUST_BE_INFINITE, "no known representation; must be infinite if it exists"),
    ("D6_1_3", "~"): (MUST_BE_INFINITE, "no known representation; must be infinite if it exists"),
    ("D6_1_4", "~"): (MUST_BE_INFINITE, "no known representation; must be infinite if it exists"),
    ("D6_1_5", "~"): (MUST_BE_INFINITE, "no known representation; must be infinite if it exists"),
    ("D6_1_6", "~"): (MUST_BE_INFINITE, "no known representation; must be infinite if it exists"),
    ("D6_1_7", "~"): (MUST_BE_INFINITE, "no known representation; must be infinite if it exists"),
    ("D6_1_8", "~"): (MUST_BE_INFINITE, "no known representation; must be infinite if it exists"),
    ("D6_1_9", "~"): (MUST_BE_INFINITE, "no known representation; must be infinite if it exists"),
    ("D6_1_10", "~"): (MUST_BE_INFINITE, "no known representation; must be infinite if it exists"),
    ("D6_1_11", "~"): (MUST_BE_INFINITE, "no known representation; must be infinite if it exists"),
    ("D6_1_12", "~"): (FINITE, "infinite and finite representations known"),
    ("D6_1_13", "~"): (REPRESENTABLE, "representable: ordinal sum of represented pieces"),
    ("D6_1_14", "~"): (OPEN, "no known representation"),
    ("D6_1_15", "~"): (OPEN, "no known representation"),
    ("D6_1_16", "~"): (OPEN, "no known representation"),
    ("D6_1_17", "~"): (OPEN, "no known representation"),
    ("D6_2_1_2", "~"): (OPEN, "no known representation"),
    ("D6_2_1_2", "b=b"): (OPEN, "no known representation"),
    ("D6_2_2", "~"): (OPEN, "no known representation"),
    ("D6_2_3_2", "~"): (OPEN, "no known representation"),
    ("D6_2_3_2", "b=b"): (OPEN, "no known representation"),
    ("D6_2_4_2", "~"): (REPRESENTABLE, "representable: ordinal sum of represented pieces"),
    ("D6_2_4_2", "a=a"): (REPRESENTABLE, "representable: ordinal sum of represented pieces"),
    ("D6_2_5", "a=a"): (FINITE, "finite representation known"),
    ("D6_2_6", "~"): (REPRESENTABLE, "representable: ordinal sum of represented pieces"),
    ("D6_2_7", "~"): (REPRESENTABLE, "representable: ordinal sum of represented pieces"),
    ("D6_2_8", "~"): (OPEN, "no known representation"),
    ("D6_2_9_2", "~"): (OPEN, "no known representation"),
    ("D6_2_9_2", "a=a"): (OPEN, "no known representation"),
    ("D6_3_1_2", "~"): (OPEN, "no known representation"),
    ("D6_3_1_2", "b=c"): (OPEN, "no known representation"),
    ("D6_3_2", "~"): (OPEN, "no known representation"),
    ("D6_3_3", "~"): (REPRESENTABLE, "representable: ordinal sum of represented pieces"),
    ("D6_3_4", "~"): (OPEN, "no known representation"),
    ("D6_3_5_2", "~"): (REPRESENTABLE, "representation known"),
    ("D6_3_5_2", "a=b"): (OPEN, "no known representation"),
    ("D6_3_6", "~"): (OPEN, "no known representation"),
    ("D6_3_7_2", "~"): (OPEN, "no known representation"),
    ("D6_3_7_2", "a=b"): (OPEN, "no known representation"),
    ("D6_4_1", "~"): (OPEN, "no known representation"),
    ("D6_4_2", "~"): (FINITE, "finite representation known"),
    ("D6_4_3", "~"): (OPEN, "no known representation"),
    ("D6_4_4", "~"): (OPEN, "no known representation"),
    ("D6_4_5", "~"): (OPEN, "no known representation"),
    ("D6_4_6", "~"): (OPEN, "no known representation"),
    ("D6_4_7", "~"): (OPEN, "no known representation"),
    ("D6_4_8", "~"): (REPRESENTABLE, "representable as a weakening relation algebra"),
    ("D6_4_9", "~"): (OPEN, "no known representation"),
    ("D6_4_10", "~"): (OPEN, "no known representation"),
}
