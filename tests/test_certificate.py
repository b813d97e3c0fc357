"""Trial seeds: the interpreter's own SHA-256, with hashlib's digests;
and the Certificate as a value, its derived fields those of their first
definition.

This module needs no numpy, as fatpoints.certificate does not.
"""

import copy
import hashlib
import importlib.util
import pickle
import random
import sys

import pytest

from fatpoints import certificate
from fatpoints.certificate import (INCONCLUSIVE, NONSPECIAL, SPECIAL_EXACT,
                                   SPECIAL_SUSPECTED, Certificate, RankReport)
from fatpoints.linsys import GENERIC, ON_CUBIC, FatPointSystem

SEEDS = [0, 1, -7, 2 ** 64 + 3, 10 ** 30]


def certificate_copy(monkeypatch, blocked):
    """A fresh copy of fatpoints.certificate, loaded while the modules in
    `blocked` cannot be imported; the package's own copy is left as it is."""
    for name in blocked:
        monkeypatch.setitem(sys.modules, name, None)
    spec = importlib.util.spec_from_file_location(
        "fatpoints._certificate_copy", certificate.__file__)
    module = importlib.util.module_from_spec(spec)
    # registered as an import would register it, until the test ends
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("blocked", [(), ("_sha2", "_sha256")],
                         ids=["builtin", "hashlib-fallback"])
def test_derive_seed_is_the_sha256_prefix(monkeypatch, blocked):
    # the first 8 bytes, big-endian, of the SHA-256 of "seed:i", with the
    # interpreter's own SHA-256, or hashlib's where it has none
    module = certificate_copy(monkeypatch, blocked)
    if blocked:
        assert module._sha256 is hashlib.sha256
    else:
        assert module._sha256.__module__ in ("_sha2", "_sha256")
    for seed in SEEDS:
        for i in range(6):
            digest = hashlib.sha256(f"{seed}:{i}".encode()).digest()
            assert module.derive_seed(seed, i) == int.from_bytes(digest[:8],
                                                                 "big")
    assert module.derive_seed(0, 0) == 12426054289685354689


def _derived_first(c):
    """(chi, h0, h1, verdict) of c as the Certificate first derived them,
    one property each, from the system's entries and not from linsys."""
    d, mults = c.system.d, c.system.mults
    chi = d * (d + 3) // 2 + 1 - sum(m * (m + 1) // 2 for m in mults)
    monomials = (d + 1) * (d + 2) // 2 if d >= 0 else 0
    floor = max(monomials - sum(m * (m + 1) // 2 for m in mults if m >= 1), 0)
    h0 = c.h0_bound if c.h0_bound == floor else None
    h1 = None if h0 is None or d < -2 else h0 - chi
    if h0 is not None:
        verdict = SPECIAL_EXACT if h0 > 0 and h1 is not None and h1 > 0 \
            else NONSPECIAL
    elif (c.twist is None and c.trials >= 3
          and len({r.h0_sample for (_, _, r) in c.evidence}) == 1):
        verdict = SPECIAL_SUSPECTED
    else:
        verdict = INCONCLUSIVE
    return chi, h0, h1, verdict


def _report(monomials, conditions, h0_sample):
    return RankReport(monomials, conditions, monomials - h0_sample)


def _named_certificates():
    """One certificate of each kind, with the verdict it must carry."""
    s13 = FatPointSystem(13, (4,) * 10)
    s40 = FatPointSystem(40, (20,) * 5, (ON_CUBIC,) * 5)
    fixed = FatPointSystem(13, (4,) * 10 + (-2,))
    return [
        # direct, full rank at the first trial
        (Certificate(s13, 2097143, 0, 3, 5, ((2097143, 1, _report(105, 100, 5)),)),
         NONSPECIAL),
        # three agreeing deficits
        (Certificate(s40, 2097143, 0, 3, 1,
                     tuple((2097143, i, _report(861, 1050, 1)) for i in range(3))),
         SPECIAL_SUSPECTED),
        # two trials only, or disagreeing ones: inconclusive
        (Certificate(s40, 2097143, 0, 2, 1,
                     tuple((2097143, i, _report(861, 1050, 1)) for i in range(2))),
         INCONCLUSIVE),
        (Certificate(s40, 2097143, 0, 3, 1,
                     tuple((2097143, i, _report(861, 1050, 1 + i % 2))
                           for i in range(3))),
         INCONCLUSIVE),
        # the twist bound at the floor pins h0; above it, inconclusive
        (Certificate(s13, 2097143, 0, 3, 5, (), (10, 1)), NONSPECIAL),
        (Certificate(s13, 2097143, 0, 3, 6, (), (10, 1)), INCONCLUSIVE),
        # d < -2: h0 = 0 is pinned and h1 is null
        (Certificate(FatPointSystem(-3, (1,)), 2097143, 0, 3, 0), NONSPECIAL),
        # a fixed component: the floor 5 is above chi 4, so h1 = 1
        (Certificate(fixed, 2097143, 0, 3, 5, ((2097143, 1, _report(105, 100, 5)),)),
         SPECIAL_EXACT),
    ]


def _certificate_corpus(rng, count):
    for _ in range(count):
        n = rng.randint(0, 12)
        mults = tuple(rng.randint(-3, 9) for _ in range(n))
        s = FatPointSystem(rng.randint(-6, 30), mults,
                           rng.choice([(GENERIC,), (ON_CUBIC,)]) * n)
        floor = max((s.d + 1) * (s.d + 2) // 2 - sum(
            m * (m + 1) // 2 for m in mults if m > 0), 0) if s.d >= 0 else 0
        trials = rng.randint(1, 4)
        evidence = tuple((101, i, _report(50, 60, rng.choice([0, 1, 2])))
                         for i in range(rng.randint(0, trials)))
        twist = rng.choice([None, (n, rng.randint(0, 5))])
        yield Certificate(s, 101, rng.randint(0, 9), trials,
                          floor + rng.choice([0, 0, 1, 2]), evidence, twist)


def test_certificate_derives_its_fields_as_first_defined():
    named = _named_certificates()
    for c, verdict in named:
        assert c.verdict == verdict, c
    corpus = [c for c, _ in named] + list(
        _certificate_corpus(random.Random(39), 3000))
    seen = set()
    for c in corpus:
        assert (c.chi, c.h0, c.h1, c.verdict) == _derived_first(c), c
        assert c.to_dict()["verdict"] == c.verdict
        seen.add(c.verdict)
    assert seen == {NONSPECIAL, SPECIAL_EXACT, SPECIAL_SUSPECTED, INCONCLUSIVE}


def test_certificate_is_a_value_of_its_seven_inputs():
    c, _ = _named_certificates()[1]
    inputs = (c.system, c.prime, c.seed, c.trials, c.h0_bound, c.evidence,
              c.twist)
    same = Certificate(*inputs)
    assert same == c and hash(same) == hash(c) == hash(inputs)
    assert same is not c and c != inputs and inputs != c
    assert c == Certificate(system=c.system, prime=c.prime, seed=c.seed,
                            trials=c.trials, h0_bound=c.h0_bound,
                            evidence=c.evidence, twist=c.twist)
    # each input, changed alone, makes another certificate
    for i, other in enumerate([FatPointSystem(40, (20,) * 5), 101, 1, 4, 2,
                               c.evidence[:2], (5, 1)]):
        changed = Certificate(*inputs[:i], other, *inputs[i + 1:])
        assert changed != c, i
    for name in ("system", "h0_bound", "chi", "h0", "h1", "verdict", "x"):
        with pytest.raises(AttributeError):
            setattr(c, name, None)
    with pytest.raises(AttributeError):
        del c.verdict
    assert repr(c).startswith("Certificate(system=FatPointSystem(d=40, ")
    assert repr(c).endswith(
        "evidence=((2097143, 0, RankReport(monomials=861, conditions=1050, "
        "rank=860)), (2097143, 1, RankReport(monomials=861, conditions=1050, "
        "rank=860)), (2097143, 2, RankReport(monomials=861, conditions=1050, "
        "rank=860))), twist=None)")
    assert "chi=" not in repr(c) and "verdict=" not in repr(c)
    for copied in (copy.copy(c), copy.deepcopy(c), pickle.loads(pickle.dumps(c))):
        assert copied == c and copied.verdict == SPECIAL_SUSPECTED
