"""Tracing from outside the package: spans around the public layer calls.

`Tracer.install()` replaces the public functions of each `fatpoints` layer
with wrappers that record a span (name, start, end, parent span, op id)
and restores them on `uninstall()`.  Nothing under `src/` changes.  Spans
stay in memory; `layer_metrics` turns the spans of one op into the
per-layer metrics.  The span stack assumes one thread, which holds because
the benchmark leaves `--threads` at its default of 1.
"""

from __future__ import annotations

import functools
import os
import statistics
from contextlib import contextmanager
from types import SimpleNamespace
from time import perf_counter

SAMPLE = "interp.sample"
BUILD = "interp.build"
RANK = "gfmat.rank"
TRIAL = "interp.trial"
CERTIFY = "interp.certify"
COROLLARY = "elliptic.corollary"
BOUND = "elliptic.bound"
STORE_LOAD = "store.load"
STORE_LOOKUP = "store.lookup"
STORE_PUT = "store.put"
CLI = "cli.main"

ELLIPTIC = (COROLLARY, BOUND)
CERTIFY_CHILDREN = (SAMPLE, BUILD, RANK)


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def trials_needed(cert) -> int:
    """Trials the verdict needed: up to the first full-rank one for a
    decided sampling verdict, all of them otherwise."""
    reports = [r for (_, _, r) in cert.evidence]
    if cert.decided:
        for i, r in enumerate(reports):
            if r.full_rank:
                return i + 1
    return len(reports)


class Tracer:
    def __init__(self):
        self.spans = []      # finished spans, in end order
        self.op = None       # op id stamped on new spans
        self._stack = []     # ids of open spans
        self._next_id = 0
        self._patches = []   # (owner, attribute, original)

    @contextmanager
    def span(self, name: str):
        rec = {"id": self._next_id, "name": name, "op": self.op,
               "parent": self._stack[-1] if self._stack else None}
        self._next_id += 1
        self._stack.append(rec["id"])
        rec["start"] = perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()
            self.spans.append(rec)

    def _wrap(self, owner, attr: str, name: str, note=None,
              before=None) -> None:
        """Replace owner.attr by a spanned call; `before(rec, args)` and
        `note(rec, args, result)` add attributes to the span."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            with self.span(name) as rec:
                if before is not None:
                    before(rec, args)
                result = orig(*args, **kwargs)
                if note is not None:
                    note(rec, args, result)
            return result

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        from fatpoints import elliptic, gfmat, interp
        from fatpoints.store import CertificateStore

        def cells(M):
            return M.rows * M.cols

        self._wrap(interp, "config_for_system", SAMPLE)
        self._wrap(interp, "build_matrix", BUILD,
                   lambda rec, args, M: rec.update(cells=cells(M)))
        self._wrap(gfmat, "rank", RANK,
                   lambda rec, args, r: rec.update(cells=cells(args[0])))
        self._wrap(interp, "h0_at_sample", TRIAL)
        self._wrap(interp, "certify", CERTIFY,
                   lambda rec, args, c: rec.update(needed=trials_needed(c)))
        self._wrap(elliptic, "corollary_nonspecial", COROLLARY)
        self._wrap(elliptic, "theorem_upper_bound", BOUND,
                   lambda rec, args, c: rec.update(needed=len(c.evidence)))
        self._wrap(CertificateStore, "__init__", STORE_LOAD)
        self._wrap(CertificateStore, "lookup_certificate", STORE_LOOKUP,
                   lambda rec, args, c: rec.update(hit=c is not None))
        # bytes appended: store file size after the put minus before it
        self._wrap(CertificateStore, "put", STORE_PUT,
                   lambda rec, args, _: rec.update(
                       bytes=_file_size(args[0].path) - rec.pop("size")),
                   lambda rec, args: rec.update(size=_file_size(args[0].path)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)


def span_cost(calls: int = 2000, repeats: int = 5) -> float:
    """Seconds one traced call adds to the call it wraps, measured on a
    no-op function (median over `repeats` batches of `calls` calls)."""
    probe = SimpleNamespace(noop=lambda: None)
    plain = probe.noop
    Tracer()._wrap(probe, "noop", "probe")

    def per_call(fn):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        return (perf_counter() - t0) / calls

    return statistics.median(per_call(probe.noop) - per_call(plain)
                             for _ in range(repeats))


def _busy(spans) -> float:
    return sum(s["end"] - s["start"] for s in spans)


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one op from its spans."""
    by_id = {s["id"]: s for s in spans}

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def ancestors(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            yield s

    m = {}
    sample, build, rank = named(SAMPLE), named(BUILD), named(RANK)
    m["interp.sample.calls"] = len(sample)
    m["interp.sample.busy_s"] = _busy(sample)
    for key, group in (("interp.build", build), ("gfmat.rank", rank)):
        busy = _busy(group)
        cells = sum(s.get("cells", 0) for s in group)
        m[f"{key}.calls"] = len(group)
        m[f"{key}.busy_s"] = busy
        m[f"{key}.cells"] = cells
        m[f"{key}.cells_per_s"] = cells / busy if busy > 0 else 0.0

    trials = len(named(TRIAL))
    needed = sum(s.get("needed", 0) for s in named(CERTIFY, BOUND))
    m["interp.trials"] = trials
    m["interp.trials.useful_ratio"] = needed / trials if trials else 0.0

    # certify self time: its span minus the sample/build/rank spans under it
    certify = named(CERTIFY)
    inner = _busy([s for s in named(*CERTIFY_CHILDREN)
                   if any(a["name"] == CERTIFY for a in ancestors(s))])
    m["interp.certify.calls"] = len(certify)
    m["interp.certify.self_s"] = _busy(certify) - inner

    elliptic = named(*ELLIPTIC)
    m["elliptic.calls"] = len(elliptic)
    m["elliptic.busy_s"] = _busy(
        [s for s in elliptic
         if not any(a["name"] in ELLIPTIC for a in ancestors(s))])

    lookups = named(STORE_LOOKUP)
    puts = named(STORE_PUT)
    m["store.load_s"] = _busy(named(STORE_LOAD))
    m["store.hits"] = sum(1 for s in lookups if s.get("hit"))
    m["store.misses"] = sum(1 for s in lookups if s.get("hit") is False)
    m["store.puts"] = len(puts)
    m["store.bytes_written"] = sum(s.get("bytes", 0) for s in puts)

    # CLI self time: each invocation minus the wrapped layers directly under it
    cli = named(CLI)
    top = [s for s in spans if s["parent"] is not None
           and by_id[s["parent"]]["name"] == CLI]
    m["cli.self_s"] = _busy(cli) - _busy(top)
    m["trace.spans"] = len(spans)
    return m
