"""Trial seeds: the interpreter's own SHA-256, with hashlib's digests.

This module needs no numpy, as fatpoints.certificate does not.
"""

import hashlib
import importlib.util
import sys

import pytest

from fatpoints import certificate

SEEDS = [0, 1, -7, 2 ** 64 + 3, 10 ** 30]


def certificate_copy(monkeypatch, blocked):
    """A fresh copy of fatpoints.certificate, loaded while the modules in
    `blocked` cannot be imported; the package's own copy is left as it is."""
    for name in blocked:
        monkeypatch.setitem(sys.modules, name, None)
    spec = importlib.util.spec_from_file_location(
        "fatpoints._certificate_copy", certificate.__file__)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for dataclasses
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
