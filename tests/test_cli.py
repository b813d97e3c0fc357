import json
import os
import re
import subprocess
import sys

import pytest

import fatpoints
from fatpoints import cli, elliptic, interp
from fatpoints.cli import (EXIT_DECIDED, EXIT_UNDECIDED, EXIT_USAGE, main,
                           parse_mults, parse_range)
from fatpoints.elliptic import corollary_nonspecial, reduce, theorem_upper_bound
from fatpoints.interp import certify
from fatpoints.linsys import FatPointSystem, homogeneous_system
from fatpoints.store import CertificateStore, record_key


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_parse_mults():
    assert parse_mults("4x10") == (4,) * 10
    assert parse_mults("3,2x4,1") == (3, 2, 2, 2, 2, 1)
    assert parse_mults("") == ()
    assert parse_mults("-1x3") == (-1, -1, -1)


def test_negative_repeat_count_is_an_error(capsys):
    with pytest.raises(ValueError, match="negative repeat count"):
        parse_mults("3,4x-10")
    assert main(["certify", "13", "4x-10"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_store_that_is_a_directory_is_an_error(tmp_path, capsys):
    assert main(["certify", "13", "4x10", "--store", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_parse_range():
    assert parse_range("5") == [5]
    assert parse_range("3:6") == [3, 4, 5, 6]
    assert parse_range("6:3") == []


def test_expdim_paper_case(capsys):
    code, out = run(capsys, "expdim", "13", "4x10", "--format", "json")
    assert code == EXIT_DECIDED
    rec = json.loads(out)
    assert rec["v"] == 4 and rec["chi"] == 5
    assert rec["monomials"] == 105 and rec["conditions"] == 100


def test_expdim_no_points(capsys):
    code, out = run(capsys, "expdim", "0", "--format", "json")
    assert json.loads(out)["v"] == 0
    assert json.loads(out)["chi"] == 1


def test_certify_exit_codes(capsys):
    code, out = run(capsys, "certify", "4", "1x10", "--placement", "cubic",
                    "--format", "json")
    assert code == EXIT_DECIDED
    rec = json.loads(out)
    assert rec["verdict"] == "nonspecial-certified" and rec["h0"] == 5

    # two double points on conics: suspected special -> undecided exit
    code, _ = run(capsys, "certify", "2", "2x2")
    assert code == EXIT_UNDECIDED


def test_usage_error_exit_code(capsys):
    assert main(["reduce", "5", "9", "2"]) == 1
    assert main(["certify", "7", "1x5", "--prime", "1000"]) == 1


@pytest.mark.parametrize("argv,code", [
    (["certify", "13", "4x10"], EXIT_DECIDED),
    (["certify", "40", "20x5"], EXIT_UNDECIDED),
    (["certify", "13", "4x10", "--prime", "4"], EXIT_USAGE),
], ids=["decided", "undecided", "usage"])
def test_process_exit_code(argv, code):
    # the status a shell sees, from a fresh interpreter on this package
    src = os.path.dirname(os.path.dirname(fatpoints.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "fatpoints.cli", *argv],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith("error: ") == (code == EXIT_USAGE)


def test_certify_refuses_prime_beyond_int64_products(capsys):
    # (4; 2^5) is the double conic through five points: h0 = 1, chi = 0.
    # At or above 2^21 the float64 products of the elimination are not
    # exact, so it must refuse rather than certify
    assert main(["certify", "4", "2x5", "--prime", "1099511627689"]) == 1
    assert "2^21" in capsys.readouterr().err


def test_prime_beyond_2_31_is_usage_error(capsys):
    # 2097169 is the least prime above 2^21, the bound now, and 2147483659
    # the least above 2^31, the bound before it
    for argv in (["certify", "13", "4x10"], ["sweep", "13", "10", "4"],
                 ["sweep", "6:5", "10", "1"]):
        for prime in ("2097169", "2147483659"):
            assert main(argv + ["--prime", prime]) == 1
            captured = capsys.readouterr()
            assert f"--prime {prime} must be below 2^21" in captured.err
            assert captured.out == ""


def test_trials_below_one_is_usage_error(capsys):
    # an empty grid checks its flags too
    for argv in (["certify", "13", "4x10"], ["bound", "40", "11", "11"],
                 ["sweep", "13", "10", "4"], ["sweep", "6:5", "10", "1"]):
        assert main(argv + ["--trials", "0"]) == 1
        captured = capsys.readouterr()
        assert "--trials 0 must be at least 1" in captured.err
        assert captured.out == ""


def test_reduce_report(capsys):
    code, out = run(capsys, "reduce", "28", "12", "8", "--format", "json")
    assert code == EXIT_DECIDED
    rec = json.loads(out)
    assert rec["mu"] == 9
    assert rec["reduced"]["d"] == 1 and rec["reduced"]["mults"] == [-1] * 12

    code, out = run(capsys, "reduce", "174", "10", "55", "--format", "json")
    rec = json.loads(out)
    assert rec["mu"] == 57
    assert rec["reduced"]["d"] == 3 and rec["reduced"]["mults"] == [-2] * 10
    assert "special" in rec["warning"]

    code, out = run(capsys, "reduce", "13", "10", "4", "--mu", "0",
                    "--format", "json")
    rec = json.loads(out)
    assert rec["reduced"]["d"] == 13 and rec["reduced"]["mults"] == [4] * 10


def test_bound_reports(capsys):
    for (d, n, m), want in [((174, 10, 55), 10), ((57, 10, 18), 1),
                            ((13, 10, 4), 5)]:
        code, out = run(capsys, "bound", str(d), str(n), str(m),
                        "--format", "json")
        assert code == EXIT_DECIDED
        assert json.loads(out)["h0_bound"] == want


def test_bound_scans_down_to_the_zero_twist(capsys):
    # every positive twist of (0; 0^10) is inapplicable (d, m < 1); the
    # scan skips them and mu = 0 gives h0 <= 1, the floor
    code, out = run(capsys, "bound", "0", "10", "0", "--format", "json")
    assert code == EXIT_DECIDED
    rec = json.loads(out)
    assert (rec["h0_bound"], rec["mu"]) == (1, 0)


def test_sweep_csv_and_resume(tmp_path, capsys):
    store = str(tmp_path / "certs.ndjson")
    args = ["sweep", "13", "10", "4:5", "--format", "csv", "--store", store,
            "--seed", "11"]
    code, out1 = run(capsys, *args)
    assert code == EXIT_DECIDED
    lines = out1.strip().splitlines()
    assert lines[0] == "d,n,m,v,mu,integral,verdict,h0"
    assert lines[1].startswith("13,10,4,4,3,True,nonspecial-certified,5")

    size_before = os.path.getsize(store)
    code, out2 = run(capsys, *args)
    assert out2 == out1
    assert os.path.getsize(store) == size_before  # nothing recomputed or appended


def _records(path):
    """Store records in file order, created_at dropped."""
    with open(path) as f:
        recs = [json.loads(line) for line in f]
    for rec in recs:
        del rec["created_at"]
    return recs


def test_sweep_resumes_after_interrupt(tmp_path, capsys, monkeypatch):
    argv = ["sweep", "13:20", "10", "4", "--format", "csv", "--seed", "3"]
    fresh = str(tmp_path / "fresh.ndjson")
    code, want = run(capsys, *argv, "--store", fresh)
    assert code == EXIT_DECIDED
    want_recs = _records(fresh)
    assert len(want_recs) == 8

    # the 5th computed item is interrupted: the 4 rows before it are kept
    store = str(tmp_path / "certs.ndjson")
    real = cli._sweep_item
    calls = []

    def interrupt_fifth(*a):
        calls.append(a)
        if len(calls) == 5:
            raise KeyboardInterrupt
        return real(*a)

    monkeypatch.setattr(cli, "_sweep_item", interrupt_fifth)
    with pytest.raises(KeyboardInterrupt):
        main(argv + ["--store", store])
    assert _records(store) == want_recs[:4]
    with open(store) as f:
        kept = f.read()

    # the rerun computes and appends only the 4 missing rows
    calls.clear()
    monkeypatch.setattr(cli, "_sweep_item", lambda *a: calls.append(a) or real(*a))
    code, out = run(capsys, *argv, "--store", store)
    assert code == EXIT_DECIDED and out == want
    assert len(calls) == 4
    with open(store) as f:
        assert f.read().startswith(kept)
    assert _records(store) == want_recs


def test_sweep_propagates_an_unexpected_exception(capsys, monkeypatch):
    # only the package's own errors become an "error: ..." row
    def raising(e):
        def certify(*a, **k):
            raise e
        return certify

    monkeypatch.setattr(interp, "certify", raising(interp.SamplingError("no")))
    code, out = run(capsys, "sweep", "10", "10", "2", "--format", "json")
    assert code == EXIT_DECIDED and json.loads(out)[0]["verdict"] == "error: no"

    monkeypatch.setattr(interp, "certify", raising(RuntimeError("boom")))
    with pytest.raises(RuntimeError, match="boom"):
        main(["sweep", "10", "10", "2"])
    assert capsys.readouterr().out == ""


def _schema_2(c):
    # the certificate an older corollary wrote for (0; 0^10): schema 2,
    # h0 = 0, h1 = -1, though chi = 1 makes h0 = 0 impossible
    c.update(schema_version=2, h0=0, h1=-1)


def _claims_special(c):
    # (a) derived fields that the inputs do not give: h0 5 is pinned
    c.update(verdict="special-exact", h0=7)


def _stale_report(c):
    # (a) a report whose h0_sample is not monomials - rank
    c["evidence"][-1]["report"]["h0_sample"] = 6


def _bound_above_least_sample(c):
    # (b) every report of (2; 2^2) reads h0_sample 1
    c.update(h0_bound=2)


def _bound_not_exact(c):
    # (b) (0; 0^10) has exactly the one constant, and this claims 2
    c.update(h0_bound=2, h0=2, h1=1, verdict="special-exact")


def _corollary_bound_not_exact(c):
    # (b) the corollary reduces (174; 55^10) to (3; (-2)^10), whose exact
    # h0 is 10; this claims the floor 0 = chi
    c.update(h0_bound=0, h0=0, h1=0, verdict="nonspecial-certified")


def _counts_of_another_system(c):
    # (b) (40; 20^5) has 861 monomials and 1050 conditions; one full-rank
    # report with 860 monomials would certify h0 = 0
    e = c["evidence"][0]
    e["report"] = {"monomials": 860, "conditions": 1050, "rank": 860,
                   "h0_sample": 0, "full_rank": True}
    c.update(evidence=[e], h0_bound=0, h0=0, h1=189,
             verdict="nonspecial-certified")


def _corollary_counts_of_another_twist(c):
    # (b) the corollary records twist 3 for (13; 4^10), which reduces it to
    # (4; 1^10); this report counts (7; 2^10), the reduced system of twist
    # 2: 36 monomials and 30 conditions
    c["evidence"] = [{"prime": c["prime"], "seed": str(interp.derive_seed(0, 0)),
                      "report": {"monomials": 36, "conditions": 30,
                                 "rank": 30, "h0_sample": 6,
                                 "full_rank": True}}]
    c.update(h0_bound=6, h0=None, h1=None, verdict="inconclusive")


def _twist_past_the_bound(c):
    # (b) (12; 4^10) has twist bound 9; at 10 the reduced system (-18;
    # (-6)^10) still has h0 0, but its chi is below the original's, so
    # the upper bound does not hold there
    c["twist"]["mu"] = 10


def _direct_route_with_a_twist(c):
    # (a) only a degeneration certificate has a twist: with one, the method
    # is degeneration-corollary, not the recorded direct-generic
    c["twist"] = {"k": 10, "mu": 0}


def _relabelled_method(c):
    # (a) the method follows from the twist and the tags: (4; 1^10) on the
    # cubic, certified directly, is direct-on-cubic
    c["method"] = "direct-generic"


def _forged_provenance(c):
    # (a) trial i ran at the certificate's prime and derive_seed(seed, i)
    c["evidence"][-1].update(prime="101", seed="42")


def _bound_below_floor(c):
    # (c) the corollary's exact bound for (11; 3^12) is chi = 6
    c.update(h0_bound=5, h0=None, h1=None, verdict="inconclusive")


def _another_systems_certificate(c):
    # (d) a sound certificate, but for (2; 2^2), not for the key's system
    c.clear()
    c.update(certify(FatPointSystem(2, (2, 2))).to_dict())


def _assert_miss(tmp_path, capsys, argv, tamper):
    """A stored record with tamper(certificate) applied is a miss: the
    invocation is recomputed, its record appended and served after that."""
    argv = argv + ["--format", "json"]
    want_code, want = run(capsys, *argv)
    store = str(tmp_path / "certs.ndjson")
    run(capsys, *argv, "--store", store)
    with open(store) as f:
        rec = json.loads(f.read())
    tamper(rec["certificate"])
    with open(store, "w") as f:
        f.write(json.dumps(rec) + "\n")
    assert CertificateStore(store).lookup_certificate(rec["key"]) is None

    # the bad record is recomputed and the current one appended after it
    assert run(capsys, *argv, "--store", store) == (want_code, want)
    recs = _records(store)
    assert len(recs) == 2 and recs[0]["key"] == recs[1]["key"]
    assert recs[1]["certificate"]["schema_version"] == interp.CERT_SCHEMA_VERSION

    # resuming on that store hits the later line and appends nothing
    size = os.path.getsize(store)
    assert run(capsys, *argv, "--store", store) == (want_code, want)
    assert os.path.getsize(store) == size
    st = CertificateStore(store)
    assert len(st) == 1
    assert st.lookup_certificate(recs[0]["key"]).to_dict() == recs[1]["certificate"]


def _schema_3(c):
    # the certificate schema 3 wrote for the corollary on (13; 4^10): no
    # twist, and the trial that sampled the reduced system (4; 1^10)
    del c["twist"]
    c.update(schema_version=3, evidence=[
        {"prime": c["prime"], "seed": "12426054289685354689",
         "report": {"monomials": 15, "conditions": 10, "rank": 10,
                    "h0_sample": 5, "full_rank": True}}])


def test_store_record_of_another_schema_is_a_miss(tmp_path, capsys):
    _, out = run(capsys, "sweep", "0", "10", "0", "--format", "json")
    assert json.loads(out)[0]["h0"] == 1
    _assert_miss(tmp_path, capsys, ["sweep", "0", "10", "0"], _schema_2)


def test_store_record_of_schema_3_is_a_miss(tmp_path, capsys):
    _assert_miss(tmp_path, capsys, ["sweep", "13", "10", "4"], _schema_3)


@pytest.mark.parametrize("argv,tamper", [
    (["certify", "13", "4x10"], _claims_special),
    (["certify", "13", "4x10"], _stale_report),
    (["certify", "2", "2x2"], _bound_above_least_sample),
    (["sweep", "0", "10", "0"], _bound_not_exact),
    (["sweep", "174", "10", "55"], _corollary_bound_not_exact),
    (["certify", "40", "20x5"], _counts_of_another_system),
    (["sweep", "13", "10", "4"], _corollary_counts_of_another_twist),
    (["sweep", "12", "10", "4"], _twist_past_the_bound),
    (["certify", "13", "4x10"], _direct_route_with_a_twist),
    (["sweep", "11", "12", "3"], _bound_below_floor),
    (["certify", "13", "4x10"], _another_systems_certificate),
    (["certify", "4", "1x10", "--placement", "cubic"], _relabelled_method),
    (["certify", "13", "4x10"], _forged_provenance),
], ids=["derived-fields", "report-fields", "least-sample", "exact-h0",
        "corollary-exact-h0", "report-counts", "corollary-report-counts",
        "inadmissible-twist", "direct-twist", "floor", "other-system",
        "method-label", "evidence-provenance"])
def test_store_record_failing_a_check_is_a_miss(tmp_path, capsys, argv,
                                                tamper):
    _assert_miss(tmp_path, capsys, argv, tamper)


@pytest.mark.parametrize("make,verdict", [
    (lambda: certify(homogeneous_system(0, 10, -1, tag="on-cubic")),
     "nonspecial-certified"),
    (lambda: certify(homogeneous_system(13, 10, 4)), "nonspecial-certified"),
    (lambda: certify(homogeneous_system(3, 10, -2, tag="on-cubic")),
     "special-exact"),
    (lambda: certify(homogeneous_system(2, 2, 2)), "special-suspected"),
    (lambda: certify(homogeneous_system(2, 2, 2), trials=2), "inconclusive"),
    (lambda: corollary_nonspecial(174, 10, 55), "inconclusive"),
    (lambda: theorem_upper_bound(reduce(homogeneous_system(13, 10, 4), 10, 1)),
     "inconclusive"),
], ids=["exact-nonspecial", "sampled-nonspecial", "special-exact",
        "special-suspected", "direct-inconclusive", "corollary-inconclusive",
        "twist-inconclusive"])
def test_store_serves_every_verdict_kind(tmp_path, make, verdict):
    cert = make()
    assert cert.verdict == verdict
    path = str(tmp_path / "store.ndjson")
    rec = CertificateStore(path).put("certify", cert.system.to_dict(), {}, cert)
    back = CertificateStore(path).lookup_certificate(rec["key"])
    assert back == cert and back.to_json() == cert.to_json()


def test_sweep_skips_rows_whose_framed_matrix_is_too_large(capsys):
    # (13; 4^13) has no integral twist bound (15/2), so it goes the direct
    # route: 100 x 75 = 7500 cells on its frame, 130 x 105 = 13650 in all
    for limit, verdict in (("10000", "nonspecial-certified"),
                           ("7500", "nonspecial-certified"),
                           ("7499", "skipped-too-large"),
                           ("7000", "skipped-too-large")):
        code, out = run(capsys, "sweep", "13", "13", "4", "--format", "json",
                        "--max-matrix-entries", limit)
        assert code == EXIT_DECIDED
        assert json.loads(out)[0]["verdict"] == verdict, limit


def test_sweep_grid_needs_no_matrix(tmp_path, capsys, monkeypatch):
    # the README grid: the cubic peel decides every row, 77 directly and
    # 22 at the corollary's twist, so nothing is sampled
    monkeypatch.setattr(interp, "h0_at_sample",
                        lambda *a: pytest.fail("sampled"))
    store = str(tmp_path / "certs.ndjson")
    code, _ = run(capsys, "sweep", "10:20", "10:12", "2:4", "--store", store)
    assert code == EXIT_DECIDED
    certs = [r["certificate"] for r in _records(store)]
    assert len(certs) == 99
    assert all(c["evidence"] == [] and c["verdict"] == "nonspecial-certified"
               for c in certs)
    corollary = [c for c in certs if c["method"] == "degeneration-corollary"]
    assert len(corollary) == 22
    for c in corollary:
        d, mults = c["system"]["d"], c["system"]["mults"]
        n = len(mults)
        assert c["twist"] == {"k": n, "mu": elliptic.corollary_twist(
            d, n, mults[0])}


def test_sweep_empty_range(capsys):
    code, out = run(capsys, "sweep", "6:5", "10", "1", "--format", "csv")
    assert code == EXIT_DECIDED
    assert out.strip() == "d,n,m,v,mu,integral,verdict,h0"


def test_cli_output_deterministic(capsys):
    argv = ["certify", "13", "4x10", "--seed", "5", "--format", "json"]
    _, out1 = run(capsys, *argv)
    _, out2 = run(capsys, *argv)
    assert out1 == out2


def test_store_roundtrip(tmp_path):
    path = str(tmp_path / "store.ndjson")
    st = CertificateStore(path)
    cert = certify(homogeneous_system(4, 10, 1, tag="on-cubic"), seed=1)
    system = {"d": 4, "mults": [1] * 10, "tags": ["on-cubic"] * 10}
    config = {"prime": "2147483629", "seed": "1", "trials": 3}
    rec = st.put("certify", system, config, cert)

    st2 = CertificateStore(path)
    assert len(st2) == 1
    key = record_key("certify", system, config)
    with open(path) as f:
        assert json.loads(f.read()) == rec
    assert st2.lookup_certificate(key) == cert

    # identical put is a no-op
    rec2 = st2.put("certify", system, config, cert)
    assert rec2 == rec
    st3 = CertificateStore(path)
    assert len(st3) == 1


def _one_record_store(path):
    cert = certify(homogeneous_system(4, 10, 1, tag="on-cubic"), seed=1)
    system = {"d": 4, "mults": [1] * 10, "tags": ["on-cubic"] * 10}
    CertificateStore(path).put("certify", system, {"seed": "1"}, cert)
    return system, cert


def test_store_drops_torn_last_line(tmp_path, capsys):
    path = str(tmp_path / "store.ndjson")
    system, cert = _one_record_store(path)
    with open(path) as f:
        whole = f.read()
    with open(path, "a") as f:
        f.write(whole[:40])  # a second record cut off mid-write
    capsys.readouterr()

    st = CertificateStore(path)
    assert len(st) == 1
    assert "torn last line" in capsys.readouterr().err
    # the next append replaces the torn tail, so the file loads cleanly
    st.put("certify", system, {"seed": "2"}, cert)
    assert len(CertificateStore(path)) == 2
    assert capsys.readouterr().err == ""
    with open(path) as f:
        lines = f.read().splitlines(keepends=True)
    assert len(lines) == 2 and lines[0] == whole

    # the CLI resumes on a torn store instead of aborting
    with open(path, "a") as f:
        f.write('{"key": "unterminated')
    code, _ = run(capsys, "certify", "4", "1x10", "--placement", "cubic",
                  "--store", path)
    assert code == EXIT_DECIDED
    assert len(CertificateStore(path)) == 3


def test_store_rejects_corruption_before_last_line(tmp_path, capsys):
    path = str(tmp_path / "store.ndjson")
    _one_record_store(path)
    with open(path) as f:
        whole = f.read()
    with open(path, "w") as f:
        f.write(whole[:40] + "\n" + whole)
    with pytest.raises(ValueError, match="line 1 is corrupt"):
        CertificateStore(path)
    assert main(["certify", "4", "1x10", "--store", path]) == 1
    assert "corrupt" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["{}", "[1]"], ids=["no-key", "array"])
def test_store_line_that_is_not_a_keyed_object_is_corrupt(tmp_path, capsys,
                                                          line):
    path = str(tmp_path / "store.ndjson")
    _one_record_store(path)
    with open(path) as f:
        whole = f.read()
    with open(path, "w") as f:
        f.write(whole + line + "\n")
    with pytest.raises(ValueError, match="line 2 is corrupt"):
        CertificateStore(path)
    assert main(["certify", "4", "1x10", "--store", path]) == 1
    assert "line 2 is corrupt" in capsys.readouterr().err


def test_sweep_outside_corollary_takes_direct_route(capsys):
    # (0; 0^10) has an integral twist bound 1 but d = m = 0: the constants
    # give h0 = 1, which the direct route finds exactly
    code, out = run(capsys, "sweep", "0", "10:12", "0", "--format", "json")
    assert code == EXIT_DECIDED
    rows = json.loads(out)
    assert [(r["verdict"], r["h0"], r["integral"]) for r in rows] == \
        [("nonspecial-certified", 1, False)] * 3


def test_sweep_certificates_never_below_the_floor(tmp_path, capsys):
    # ranges starting with '-' need the '--' separator
    store = str(tmp_path / "certs.ndjson")
    code, _ = run(capsys, "sweep", "--store", store, "--", "-3:3", "10:12",
                  "-1:2")
    assert code == EXIT_DECIDED
    certs = [r["certificate"] for r in _records(store)]
    assert len(certs) == 84
    for c in certs:
        assert c["h1"] is None or c["h1"] >= 0
        if c["system"]["d"] >= -2:
            assert c["h0"] >= max(c["chi"], 0)


def test_non_prime_is_usage_error_on_every_call(capsys):
    # is_prime is memoized: the second, cached check must refuse as well
    for prime in ("4", "4", "1000001", "1000001"):
        assert main(["certify", "7", "1x5", "--prime", prime]) == 1
        assert f"--prime {prime} is not prime" in capsys.readouterr().err


def test_sampling_failure_is_an_error_not_a_traceback(capsys):
    # GF(7) has too few cubic points for 20 distinct ones; the cubic peel
    # bounds (3; 1^20) by 1, above its floor 0, so the points are sampled
    assert main(["certify", "3", "1x20", "--placement", "cubic",
                 "--prime", "7"]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_subcommands_reject_flags_they_do_not_read(capsys):
    for argv in (["expdim", "13", "4x10", "--prime", "4"],
                 ["expdim", "13", "4x10", "--trials", "0"],
                 ["reduce", "13", "10", "4", "--seed", "1"],
                 ["reduce", "13", "10", "4", "--store", "s.ndjson"],
                 ["bound", "13", "10", "4", "--store", "s.ndjson"],
                 ["certify", "13", "4x10", "--max-matrix-entries", "10"]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err and captured.out == ""


def test_subcommands_without_csv_output_reject_it(capsys):
    for argv in (["expdim", "13", "4x10"], ["certify", "13", "4x10"],
                 ["reduce", "13", "10", "4"], ["bound", "13", "10", "4"]):
        assert main(argv + ["--format", "csv"]) == 1
        captured = capsys.readouterr()
        assert "invalid choice" in captured.err and captured.out == ""


def test_certify_store_is_a_lookup_on_rerun(tmp_path, capsys, monkeypatch):
    store = str(tmp_path / "certs.ndjson")
    for fmt in ("json", "table"):
        argv = ["certify", "13", "4x10", "--seed", "2", "--store", store,
                "--format", fmt]
        code, first = run(capsys, *argv)
        assert code == EXIT_DECIDED
        with monkeypatch.context() as mp:
            mp.setattr(interp, "certify", lambda *a, **k: pytest.fail("recomputed"))
            assert run(capsys, *argv) == (code, first)
    assert len(_records(store)) == 1


def _readme() -> str:
    with open(os.path.join(os.path.dirname(__file__), os.pardir,
                           "README.md")) as f:
        return f.read()


def test_readme_cli_examples_run(tmp_path, capsys, monkeypatch):
    # every line of the CLI block is decided, its store in tmp_path
    block = _readme().split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()
             if line.startswith("fatpoints ")]
    assert len(lines) == 7
    monkeypatch.chdir(tmp_path)
    for argv in lines:
        assert main(argv[1:]) == EXIT_DECIDED, argv
        capsys.readouterr()


def test_readme_inline_examples_are_not_usage_errors(tmp_path, capsys,
                                                     monkeypatch):
    examples = re.findall(r"`fatpoints ([^`]*)`", _readme())
    assert examples
    monkeypatch.chdir(tmp_path)
    for example in examples:
        assert main(example.split()) != cli.EXIT_USAGE, example
        capsys.readouterr()
