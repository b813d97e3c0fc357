"""The benchmark's tracer wraps package functions by attribute name.

A refactor that renames one of them, or calls it in a way the wrapper
cannot see, should fail here and not only in a traced benchmark run.
"""

import os
import sys

from fatpoints import elliptic, gfmat, interp
from fatpoints.elliptic import reduce
from fatpoints.linsys import FatPointSystem, homogeneous_system
from fatpoints.store import CertificateStore

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))
import spans  # noqa: E402


def test_tracer_installs_and_uninstalls():
    wrapped = [(interp, "config_for_system"), (interp, "build_matrix"),
               (interp, "h0_at_sample"), (interp, "certify"),
               (elliptic, "theorem_upper_bound"),
               (elliptic, "corollary_nonspecial"), (gfmat, "rank"),
               (CertificateStore, "__init__"),
               (CertificateStore, "lookup_certificate"),
               (CertificateStore, "put")]
    originals = [getattr(owner, attr) for owner, attr in wrapped]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert all(getattr(owner, attr) is not orig
                   for (owner, attr), orig in zip(wrapped, originals))
        interp.certify(FatPointSystem(2, (2, 2)), seed=0)
        elliptic.theorem_upper_bound(
            reduce(homogeneous_system(13, 10, 4), 10, 1), seed=0)
    finally:
        tracer.uninstall()
    assert all(getattr(owner, attr) is orig
               for (owner, attr), orig in zip(wrapped, originals))

    # every trial of both routes ran through the wrapped module functions
    names = [s["name"] for s in tracer.spans]
    assert names.count(spans.CERTIFY) == 1 and names.count(spans.BOUND) == 1
    for layer in (spans.SAMPLE, spans.BUILD, spans.RANK, spans.TRIAL):
        assert names.count(layer) == 4


def test_lead_trials_still_span_through_the_wrapped_attributes():
    # (40; 20^5) runs all three trials; the first factors the fourth
    # point's rows, the later ones build and rank only the fifth point's
    tracer = spans.Tracer()
    tracer.install()
    try:
        interp.certify(homogeneous_system(40, 5, 20), trials=3, seed=0)
    finally:
        tracer.uninstall()
    names = [s["name"] for s in tracer.spans]
    for layer in (spans.SAMPLE, spans.BUILD, spans.RANK, spans.TRIAL):
        assert names.count(layer) == 3
    for layer in (spans.BUILD, spans.RANK):
        assert [s["cells"] for s in tracer.spans if s["name"] == layer] == [
            420 * 231, 210 * 231, 210 * 231]
    m = spans.layer_metrics(tracer.spans)
    assert (m["interp.trials"], m["interp.trials.useful_ratio"]) == (3, 1.0)
