"""``verify_certificate`` against the route that builds the whole target.

The reference rebuilds Dq(E) with ``build_dq``, validates it with
``validate_dqra``/``validate_dinfl``, checks the carrier size, the range and
injectivity of the embedding, and validates the embedding with
``validate_homomorphism``.  The verifier builds no Dq(E); on every
certificate below the two must reach the same verdict, or raise the same
error.
"""

import dataclasses
import random

import pytest

from qra import (
    AlgHom,
    RepBase,
    RepresentationCertificate,
    SearchOptions,
    build_dq,
    representation_search,
    validate_dinfl,
    validate_dqra,
    validate_homomorphism,
    verify_certificate,
)
from qra.catalog import build_catalog
from qra.errors import QraError, SignatureError, StructuralError
from qra.represent import _beta_candidates, iterate_bases


@pytest.fixture(scope="module")
def reference():
    """The verdict of the route that builds and validates Dq(E), with each
    base's target built and validated once."""
    targets = {}

    def verdict(alg, cert):
        base = cert.base
        key = (base.poset.up, base.equiv, base.alpha, base.beta)
        if key not in targets:
            target = build_dq(base).algebra
            laws = validate_dqra if target.neg is not None else validate_dinfl
            targets[key] = target, laws(target).ok
        target, valid = targets[key]
        emb = cert.embedding
        if cert.carrier_size != target.size:
            return False
        if len(emb) != alg.size or len(set(emb)) != alg.size:
            return False
        if any(not 0 <= v < target.size for v in emb):
            return False
        if not valid:
            return False
        return validate_homomorphism(AlgHom(source=alg, target=target, map=emb)).ok

    return verdict


def _outcome(verify, alg, cert):
    try:
        return verify(alg, cert)
    except QraError as exc:
        return type(exc)


def _agree(reference, cases):
    """Assert the two verdicts agree on every (algebra, certificate) case;
    the verdicts seen."""
    seen = []
    for alg, cert in cases:
        expected = _outcome(reference, alg, cert)
        assert _outcome(verify_certificate, alg, cert) == expected, (alg.name, cert)
        seen.append(expected)
    return seen


def _algebras():
    return [v.algebra for e in build_catalog() for v in e.variants]


def _search_certificates():
    """Every certificate of the catalogue at 2 points, and two at 3."""
    by_name = {alg.name: alg for alg in _algebras()}
    searches = ([(alg, 2) for alg in by_name.values()]
                + [(by_name[name], 3) for name in ("D4_2_3", "D6_4_2")])
    found = [(alg, representation_search(alg, points)) for alg, points in searches]
    return [(alg, r) for alg, r in found if isinstance(r, RepresentationCertificate)]


def _rebased(cert, **fields):
    """The certificate on the base with ``fields`` replaced, or None when
    that is not a valid base."""
    base = cert.base
    values = dict(poset=base.poset, equiv=base.equiv, alpha=base.alpha, beta=base.beta)
    values.update(fields)
    try:
        return dataclasses.replace(cert, base=RepBase(**values))
    except StructuralError:
        return None


def _mutants(cert):
    """Two entries swapped, one entry moved to the next carrier index,
    alpha the identity, and beta another candidate, where the base is
    still valid."""
    emb, base = cert.embedding, cert.base
    out = []
    for i in range(len(emb)):
        for j in range(i + 1, len(emb)):
            swapped = list(emb)
            swapped[i], swapped[j] = emb[j], emb[i]
            out.append(dataclasses.replace(cert, embedding=tuple(swapped)))
        moved = list(emb)
        moved[i] = (emb[i] + 1) % cert.carrier_size
        out.append(dataclasses.replace(cert, embedding=tuple(moved)))
    identity = tuple(range(base.points))
    if base.alpha != identity:
        out.append(_rebased(cert, alpha=identity))
    if base.beta is not None:
        out += [_rebased(cert, beta=beta)
                for beta in _beta_candidates(base.poset, base.equiv, base.alpha)
                if beta != base.beta]
    return [m for m in out if m is not None]


def test_search_certificates_and_their_mutants(reference):
    certified = _search_certificates()
    assert len(certified) == 9
    assert {alg.name for alg, cert in certified if cert.base.points == 3} == {"D4_2_3", "D6_4_2"}
    assert _agree(reference, certified) == [True] * 9
    mutated = [(alg, m) for alg, cert in certified for m in _mutants(cert)]
    seen = _agree(reference, mutated)
    assert len(seen) == 104 and True in seen and False in seen
    assert any(m.base.beta != cert.base.beta for alg, cert in certified for m in _mutants(cert))


def test_identity_embedding_of_every_small_dq(reference):
    cases = []
    for need_beta in (True, False):
        for base in iterate_bases(2, need_beta, SearchOptions()):
            dq = build_dq(base).algebra
            cases.append((dq, RepresentationCertificate(base, tuple(range(dq.size)), dq.size)))
    assert len(cases) == 12
    assert _agree(reference, cases) == [True] * 12


def test_random_injective_maps(reference):
    rng = random.Random(26)
    small = [alg for alg in _algebras() if alg.size <= 4]
    bases = {need_beta: list(iterate_bases(2, need_beta, SearchOptions()))
             for need_beta in (True, False)}
    cases = []
    for alg in small:
        # each signature into its own bases, and a DInFL reduct into the
        # bases with beta, where the signatures differ
        for source, targets in ((alg, bases[True]), (alg.without_neg(), bases[False]),
                                (alg.without_neg(), bases[True][:2])):
            for base in targets:
                size = build_dq(base).algebra.size
                if size < alg.size:
                    continue
                for _ in range(4):
                    emb = tuple(rng.sample(range(size), alg.size))
                    cases.append((source, RepresentationCertificate(base, emb, size)))
    seen = _agree(reference, cases)
    assert len(seen) > 300 and set(seen) == {True, False, SignatureError}
