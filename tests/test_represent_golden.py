"""The representation-search results of the benchmark's `represent`
workload, pinned by SHA-256.

Each result is dumped as canonical JSON: a certificate as its base (via
``qio.base_to_obj``), embedding and carrier size, an exhaustion report with
every field.  The hashes were taken before the homomorphism search kernel
moved to one candidate bitmask per node; they hold which base certifies,
the embedding found on it, and every exhaustion count, to the byte.
"""

import dataclasses
import hashlib
import json

from qra import io as qio
from qra.catalog import build_catalog
from qra.represent import RepresentationCertificate, representation_search


def _dump(result) -> dict:
    if isinstance(result, RepresentationCertificate):
        return {"result": "certificate", "base": qio.base_to_obj(result.base),
                "embedding": list(result.embedding), "carrier_size": result.carrier_size}
    return {"result": "exhausted", **dataclasses.asdict(result)}


def _digest(result) -> str:
    return hashlib.sha256(json.dumps(_dump(result), sort_keys=True).encode()).hexdigest()


def _workload():
    """(variant, points): every catalogue variant of at most 6 elements at 2
    points, then D4_2_3 and D6_4_2 at 3 points."""
    catalog = build_catalog()
    sweep = [(v.algebra, 2) for e in catalog if e.size <= 6 for v in e.variants]
    by_name = {v.algebra.name: v.algebra for e in catalog for v in e.variants}
    return sweep + [(by_name[name], 3) for name in ("D4_2_3", "D6_4_2")]


GOLDEN = {
    "D1_1_1 at 2": "f7d60a3d92639be1781faeb4b66da779024886b80e194f3b0da309cca2da5479",
    "D2_1_1 at 2": "0c9c1b78c9e33c078153c64643889286a768ca76ac43000c1273e193b9cf416e",
    "D3_1_1 at 2": "a5f2fba25f2b199b3bebfa1e6fb082a642715d3a7448a5890225e689a9ccd3e3",
    "D3_1_2 at 2": "a075d3011c6db512ab58c23c2c876fa33cf0638e6f79c1539413bff93ee94050",
    "D4_1_1 at 2": "a5f2fba25f2b199b3bebfa1e6fb082a642715d3a7448a5890225e689a9ccd3e3",
    "D4_1_2 at 2": "a5f2fba25f2b199b3bebfa1e6fb082a642715d3a7448a5890225e689a9ccd3e3",
    "D4_1_3 at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D4_1_4 at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D4_2_1_2 at 2": "4e60d5fc8d84b932cfe3b40e32fb94293a4431df15241329c452f430f23f128e",
    "D4_2_1_2[a=a] at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D4_2_2 at 2": "c45bdf0b87c2cec70c797849e3f16e24303fa34cece1fc980c6ae62b253a339e",
    "D4_2_3 at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D4_3_1 at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D4_3_2 at 2": "f0304e683de40dcf38f2f67ed8f3267fb12bdc7b671165303ce0ac2774138f8f",
    "D5_1_1 at 2": "a5f2fba25f2b199b3bebfa1e6fb082a642715d3a7448a5890225e689a9ccd3e3",
    "D5_1_2 at 2": "a5f2fba25f2b199b3bebfa1e6fb082a642715d3a7448a5890225e689a9ccd3e3",
    "D5_1_3 at 2": "a5f2fba25f2b199b3bebfa1e6fb082a642715d3a7448a5890225e689a9ccd3e3",
    "D5_1_4 at 2": "3a0a7cc3fed51f36b0c69c673186474afe18ddc64ca71da13d8b5062cd938e5d",
    "D5_1_5 at 2": "3a0a7cc3fed51f36b0c69c673186474afe18ddc64ca71da13d8b5062cd938e5d",
    "D5_1_6 at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D5_1_7 at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D5_1_8 at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D6_1_1 at 2": "a5f2fba25f2b199b3bebfa1e6fb082a642715d3a7448a5890225e689a9ccd3e3",
    "D6_1_2 at 2": "a5f2fba25f2b199b3bebfa1e6fb082a642715d3a7448a5890225e689a9ccd3e3",
    "D6_1_3 at 2": "a5f2fba25f2b199b3bebfa1e6fb082a642715d3a7448a5890225e689a9ccd3e3",
    "D6_1_4 at 2": "a5f2fba25f2b199b3bebfa1e6fb082a642715d3a7448a5890225e689a9ccd3e3",
    "D6_1_5 at 2": "a5f2fba25f2b199b3bebfa1e6fb082a642715d3a7448a5890225e689a9ccd3e3",
    "D6_1_6 at 2": "a5f2fba25f2b199b3bebfa1e6fb082a642715d3a7448a5890225e689a9ccd3e3",
    "D6_1_7 at 2": "a5f2fba25f2b199b3bebfa1e6fb082a642715d3a7448a5890225e689a9ccd3e3",
    "D6_1_8 at 2": "3a0a7cc3fed51f36b0c69c673186474afe18ddc64ca71da13d8b5062cd938e5d",
    "D6_1_9 at 2": "3a0a7cc3fed51f36b0c69c673186474afe18ddc64ca71da13d8b5062cd938e5d",
    "D6_1_10 at 2": "3a0a7cc3fed51f36b0c69c673186474afe18ddc64ca71da13d8b5062cd938e5d",
    "D6_1_11 at 2": "3a0a7cc3fed51f36b0c69c673186474afe18ddc64ca71da13d8b5062cd938e5d",
    "D6_1_12 at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D6_1_13 at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D6_1_14 at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D6_1_15 at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D6_1_16 at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D6_1_17 at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D6_2_1_2 at 2": "a5f2fba25f2b199b3bebfa1e6fb082a642715d3a7448a5890225e689a9ccd3e3",
    "D6_2_1_2[b=b] at 2": "a5f2fba25f2b199b3bebfa1e6fb082a642715d3a7448a5890225e689a9ccd3e3",
    "D6_2_2 at 2": "a5f2fba25f2b199b3bebfa1e6fb082a642715d3a7448a5890225e689a9ccd3e3",
    "D6_2_3_2 at 2": "a5f2fba25f2b199b3bebfa1e6fb082a642715d3a7448a5890225e689a9ccd3e3",
    "D6_2_3_2[b=b] at 2": "a5f2fba25f2b199b3bebfa1e6fb082a642715d3a7448a5890225e689a9ccd3e3",
    "D6_2_4_2 at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D6_2_4_2[a=a] at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D6_2_5[a=a] at 2": "0b0493d6ea90d9818cf96ef1d3c255d4965135c259d1d1b46bbdf4d168154fb6",
    "D6_2_6 at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D6_2_7 at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D6_2_8 at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D6_2_9_2 at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D6_2_9_2[a=a] at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D6_3_1_2 at 2": "a5f2fba25f2b199b3bebfa1e6fb082a642715d3a7448a5890225e689a9ccd3e3",
    "D6_3_1_2[b=c] at 2": "a5f2fba25f2b199b3bebfa1e6fb082a642715d3a7448a5890225e689a9ccd3e3",
    "D6_3_2 at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D6_3_3 at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D6_3_4 at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D6_3_5_2 at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D6_3_5_2[a=b] at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D6_3_6 at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D6_3_7_2 at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D6_3_7_2[a=b] at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D6_4_1 at 2": "3a0a7cc3fed51f36b0c69c673186474afe18ddc64ca71da13d8b5062cd938e5d",
    "D6_4_2 at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D6_4_3 at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D6_4_4 at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D6_4_5 at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D6_4_6 at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D6_4_7 at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D6_4_8 at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D6_4_9 at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D6_4_10 at 2": "aea90b4fd5bf8a7200b6a2f0d32ee8947d583689d6a6d3dce1c98e6173a84bfd",
    "D4_2_3 at 3": "96880df3436ba4765e22aaf5efda83ced0a3ec97948ad421bbf6244debfd3d4e",
    "D6_4_2 at 3": "a3f0d1012e4c6d85a09b01ff1111881c403f25cd4c6699387825ac7515af074c",
}


def test_golden_covers_the_workload():
    assert list(GOLDEN) == [f"{a.name} at {k}" for a, k in _workload()]
    assert len(GOLDEN) == 74


def test_representation_search_results_are_pinned():
    for alg, points in _workload():
        key = f"{alg.name} at {points}"
        assert _digest(representation_search(alg, points)) == GOLDEN[key], key
