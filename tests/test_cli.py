import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as hs

import fatpoints
from fatpoints import (certificate, cli, elliptic, interp, linsys,
                       store as store_mod)
from fatpoints.cli import (EXIT_DECIDED, EXIT_UNDECIDED, EXIT_USAGE, main,
                           parse_mults, parse_range)
from fatpoints.elliptic import corollary_nonspecial, reduce, theorem_upper_bound
from fatpoints.interp import certify
from fatpoints.linsys import FatPointSystem, homogeneous_system
from fatpoints.store import CertificateStore, invocation


def _answered(rec):
    """The invocation a store record rec names: its own command and its
    certificate's system, prime, seed and trials, as the store keys it."""
    return store_mod._answered(rec)


def _run(cert):
    """The run cert states, as a request names it to the store."""
    return cert.system, cert.prime, cert.seed, cert.trials


def _lookup(st, rec):
    """What the store st serves for the invocation of its record rec, a
    request on the system the record states, or None on a miss."""
    s = rec["certificate"]["system"]
    return st.lookup_certificate(_answered(rec), FatPointSystem(
        s["d"], s["mults"], s["tags"]))


def _recomputed():
    pytest.fail("recomputed")


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


@pytest.mark.parametrize("argv", [["certify", "4", "1x10"],
                                  ["sweep", "10", "10", "1"]],
                         ids=["certify", "sweep"])
def test_empty_store_path_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                           argv):
    # an empty path would silently be no store, and the run not resumable
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--store", ""]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
    assert os.listdir(tmp_path) == []


def test_parse_range():
    assert parse_range("5") == [5]
    assert parse_range("3:6") == [3, 4, 5, 6]
    assert parse_range("6:3") == []


@pytest.mark.parametrize("argv, bad", [
    (["certify", "2", "x3"], "block 'x3'"),
    (["certify", "2", "4x"], "block '4x'"),
    (["expdim", "3", "2,x"], "block 'x'"),
    (["sweep", "1:", "10", "1"], "range '1:'"),
])
def test_unreadable_mults_or_range_names_the_input(capsys, argv, bad):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: cannot read ")
    assert bad in captured.err and captured.out == ""


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


def test_main_builds_the_parser_once_per_process(capsys):
    cli.build_parser.cache_clear()
    assert run(capsys, "expdim", "13", "4x10", "--format", "json")[0] == 0
    # the second call sees its own defaults, not the first call's flags
    code, out = run(capsys, "expdim", "13", "4x10")
    assert code == 0 and out.startswith("system ")
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


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


@pytest.mark.parametrize("given,want", [(None, "1"), ("3", "3")])
def test_cli_keeps_openblas_to_one_thread_unless_set(given, want):
    src = os.path.dirname(os.path.dirname(fatpoints.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    code = "import os, fatpoints.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.strip() == want, proc.stderr


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


@pytest.mark.parametrize("argv", [["certify", "13", "4x10"],
                                  ["bound", "13", "10", "4"],
                                  ["sweep", "13", "10", "4"]],
                         ids=["certify", "bound", "sweep"])
def test_prime_at_most_twice_the_degree_is_usage_error(capsys, argv):
    # the floor is max(2 d, 3) = 26 for degree 13: 23 is refused before
    # anything runs, and 29, the next prime above it, is accepted
    assert main(argv + ["--prime", "23"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert "--prime 23 too small for degree 13" in captured.err
    assert captured.out == ""
    assert main(argv + ["--prime", "29"]) == EXIT_DECIDED


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


def test_bound_peels_each_scanned_twist_once(capsys, monkeypatch):
    # (13; 4^10) reaches its floor at the top twist 3, the only one scanned;
    # its reduced system (4; 1^10) is peeled once, in least_h0
    calls = []
    real = linsys.cubic_bound
    monkeypatch.setattr(linsys, "cubic_bound",
                        lambda s: calls.append(s) or real(s))
    code, out = run(capsys, "bound", "13", "10", "4", "--format", "json")
    assert code == EXIT_DECIDED and json.loads(out)["mu"] == 3
    assert calls == [reduce(homogeneous_system(13, 10, 4), 10, 3).reduced]


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
    handles = []

    def recording_open(*args, **kwargs):
        handles.append(open(*args, **kwargs))
        return handles[-1]

    monkeypatch.setattr(store_mod, "open", recording_open, raising=False)
    with pytest.raises(KeyboardInterrupt):
        main(argv + ["--store", store])
    assert _records(store) == want_recs[:4]
    # the interrupted command still closed the store's append handle
    assert len(handles) == 1 and handles[0].closed
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

    monkeypatch.setattr(interp, "certify",
                        raising(certificate.SamplingError("no")))
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
    c["evidence"] = [{"prime": c["prime"],
                      "seed": str(certificate.derive_seed(0, 0)),
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


def _evidence_of_a_decided_system(c):
    # (b) the cubic peel decides (4; 1^10) on a cubic, h0 = 5, so no trial
    # ever samples it; a forged full-rank report agrees with every derived
    # field
    c["evidence"] = [{"prime": c["prime"],
                      "seed": str(certificate.derive_seed(int(c["seed"]), 0)),
                      "report": {"monomials": 15, "conditions": 10,
                                 "rank": 10, "h0_sample": 5,
                                 "full_rank": True}}]


def _truncated_evidence(c):
    # (b) one trial of (13; 4^10) at rank 99 of 100, where 3 were requested:
    # least_h0 goes on after a trial below full rank, so it never writes
    # this, though every derived field agrees (special-suspected, exit 2)
    c["evidence"][0]["report"].update(rank=99, h0_sample=6, full_rank=False)
    c.update(evidence=c["evidence"][:1], h0_bound=6, h0=None, h1=None,
             verdict="special-suspected")


def _evidence_past_full_rank(c):
    # (b) a second trial after the full-rank first one: least_h0 stops at
    # the first full-rank trial; every derived field still agrees
    c["evidence"].append({
        "prime": c["prime"],
        "seed": str(certificate.derive_seed(int(c["seed"]), 1)),
        "report": dict(c["evidence"][0]["report"])})


def _samples_below_the_floor(c):
    # (b) three trials of (13; 4^10, -2) at rank 101 on 100 conditions,
    # h0_sample 4: no rank of the system, whose clamped chi, the floor of
    # every sample, is 5; its chi is 4, so every derived field agrees
    c["evidence"] = [{"prime": c["prime"],
                      "seed": str(certificate.derive_seed(int(c["seed"]), i)),
                      "report": {"monomials": 105, "conditions": 100,
                                 "rank": 101, "h0_sample": 4,
                                 "full_rank": False}} for i in range(3)]
    c.update(h0_bound=4, h0=None, h1=None, verdict="special-suspected")


def _bound_below_floor(c):
    # (c) the corollary's exact bound for (11; 3^12) is chi = 6
    c.update(h0_bound=5, h0=None, h1=None, verdict="inconclusive")


def _another_systems_certificate(c):
    # a sound certificate, but for (2; 2^2): the record answers that
    # invocation, not this one
    c.clear()
    c.update(certify(FatPointSystem(2, (2, 2))).to_dict())


def _twist_of_no_route(mu, k=None):
    # (a) a sound degeneration certificate of the record's system at twist
    # (k, mu), k = n by default, where the record's command writes another
    # twist or none
    def tamper(c):
        s = certificate.certificate_from_dict(c).system
        plan = reduce(s, s.npoints if k is None else k, mu)
        c.clear()
        c.update(theorem_upper_bound(plan).to_dict())
    return tamper


def _system_of_another_json_type(c):
    # 13.0 == 13 in Python, but in JSON the record's system is not the
    # invocation's, so the record answers another invocation
    c["system"]["d"] = 13.0


def _assert_miss(tmp_path, capsys, argv, tamper, part="certificate"):
    """A stored record with tamper applied to its part (the whole record
    when part is None) is a miss: the invocation is recomputed, its record
    appended and served after that."""
    argv = argv + ["--format", "json"]
    want_code, want = run(capsys, *argv)
    store = str(tmp_path / "certs.ndjson")
    run(capsys, *argv, "--store", store)
    with open(store) as f:
        rec = json.loads(f.read())
    untampered = json.loads(json.dumps(rec))
    tamper(rec if part is None else rec[part])
    with open(store, "w") as f:
        f.write(json.dumps(rec) + "\n")
    assert _lookup(CertificateStore(store), untampered) is None

    # the bad record is recomputed and the current one appended after it
    assert run(capsys, *argv, "--store", store) == (want_code, want)
    recs = _records(store)
    assert len(recs) == 2 and _answered(recs[1]) == _answered(untampered)
    assert (recs[1]["certificate"]["schema_version"]
            == certificate.CERT_SCHEMA_VERSION)

    # resuming on that store hits the later line and appends nothing
    size = os.path.getsize(store)
    assert run(capsys, *argv, "--store", store) == (want_code, want)
    assert os.path.getsize(store) == size and len(_records(store)) == 2
    st = CertificateStore(store)
    assert _lookup(st, recs[1]).to_dict() == recs[1]["certificate"]


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
    (["certify", "13", "4x10"], _system_of_another_json_type),
    (["certify", "4", "1x10", "--placement", "cubic"],
     _evidence_of_a_decided_system),
    (["certify", "13", "4x10"], _truncated_evidence),
    (["certify", "13", "4x10"], _evidence_past_full_rank),
    (["sweep", "13", "10", "4"], _twist_of_no_route(1)),
    (["sweep", "5", "11", "2"], _twist_of_no_route(1, k=10)),
    (["sweep", "10", "10", "2"], _twist_of_no_route(0)),
], ids=["derived-fields", "report-fields", "least-sample", "exact-h0",
        "corollary-exact-h0", "report-counts", "corollary-report-counts",
        "inadmissible-twist", "direct-twist", "floor", "other-system",
        "method-label", "evidence-provenance", "system-json-type",
        "evidence-of-decided-system", "truncated-evidence",
        "evidence-past-full-rank", "twist-inconclusive", "partial-twist",
        "direct-sweep-twist"])
def test_store_record_failing_a_check_is_a_miss(tmp_path, capsys, argv,
                                                tamper):
    _assert_miss(tmp_path, capsys, argv, tamper)


def test_store_record_sampling_below_the_floor_is_a_miss(tmp_path, capsys):
    # the forged record would be served as special-suspected (exit 2); a
    # miss recomputes the one trial at the floor: special-exact, h1 = 1
    argv = ["certify", "13", "4x10,-2"]
    code, out = run(capsys, *argv, "--format", "json")
    c = json.loads(out)
    assert code == EXIT_DECIDED and len(c["evidence"]) == 1
    assert (c["verdict"], c["h0"], c["h1"]) == ("special-exact", 5, 1)
    _assert_miss(tmp_path, capsys, argv, _samples_below_the_floor)


def test_certify_refuses_a_sample_below_the_floor(tmp_path, capsys,
                                                  monkeypatch):
    """A rank kernel that reads one more than the rank puts (13; 4^10) at
    h0_sample 4, below its floor 5: certify raises instead of calling it
    special-suspected, and the CLI exits 1 and stores nothing.

    This does not catch an inflated rank that lands exactly on the floor,
    such as (40; 20^5) reading 861 of 861: that needs the rank replayed
    by a kernel other than gfmat."""
    from fatpoints import gfmat
    rank = gfmat.rank
    monkeypatch.setattr(gfmat, "rank", lambda *a: rank(*a) + 1)
    with pytest.raises(certificate.SamplingError, match="below its floor 5"):
        certify(homogeneous_system(13, 10, 4))
    store = str(tmp_path / "certs.ndjson")
    assert run(capsys, "certify", "13", "4x10", "--store", store) == (
        EXIT_USAGE, "")
    assert not os.path.exists(store)


@pytest.mark.parametrize("argv,part,tamper", [
    (["certify", "13", "4x10"], "certificate", lambda c: c.update(trials=3.0)),
    (["certify", "13", "4x10", "--trials", "1"], "certificate",
     lambda c: c.update(trials=True)),
    (["certify", "13", "4x10"], None, lambda rec: rec.update(command="sweep")),
], ids=["trials-float", "trials-bool", "other-command"])
def test_store_record_of_another_invocation_is_a_miss(tmp_path, capsys, argv,
                                                      part, tamper):
    # 3.0 == 3 and True == 1 in Python, but the record's own certificate
    # then encodes to another invocation, which the record answers instead,
    # as does a command of another subcommand
    _assert_miss(tmp_path, capsys, argv, tamper, part)


def _report(**fields):
    def tamper(c):
        c["evidence"][0]["report"].update(fields)
    return tamper


@pytest.mark.parametrize("tamper", [
    lambda c: c.update(h0=True, h0_bound=True),
    lambda c: c.update(h0=1.0, h0_bound=1.0),
    _report(rank=14.0),
    _report(monomials=True),
], ids=["h0-bound-true", "h0-bound-float", "rank-float", "monomials-true"])
def test_store_record_with_a_forged_json_type_is_a_miss(tmp_path, capsys,
                                                        tamper):
    # true == 1 == 1.0 in Python, so these records once derived again to an
    # equal dict and were served, printing true or 1.0 where a cold run
    # prints 1; h0_bound and every report's counts and rank must be ints
    _assert_miss(tmp_path, capsys, ["certify", "4", "1x14"], tamper)


def _old_invocation(command, run):
    """The JSON text the store once filed a run under."""
    return certificate.canonical_json([command, run["system"], run["prime"],
                                       run["seed"], run["trials"]])


# (command, system, prime, seed, trials): the second puts 1 where true
# and 1.0 could stand for it
KEYED_REQUESTS = [
    ("certify", homogeneous_system(13, 10, 4), interp.DEFAULT_PRIME, 0, 3),
    ("sweep", FatPointSystem(1, (1, 2), ("generic", "on-cubic")), 5, 1, 1),
]


def _stated(command, system, prime, seed, trials):
    """A record of that run, its certificate holding only the run."""
    return {"command": command, "certificate": {
        "system": system.to_dict(), "prime": str(prime), "seed": str(seed),
        "trials": trials}}


def _retyped(v):
    """Values a record might hold for v: v in other JSON types, or any."""
    near = [v]
    for f in (int, float, str, bool):
        try:
            near.append(f(v))
        except ValueError:
            pass
    return hs.one_of(hs.sampled_from(near), hs.none(), hs.booleans(),
                     hs.integers(-3, 20), hs.floats(allow_nan=False),
                     hs.text(max_size=3))


@hs.composite
def _near_records(draw):
    """A record of one of KEYED_REQUESTS with some run fields retyped,
    changed, added or dropped."""
    rec = _stated(*draw(hs.sampled_from(KEYED_REQUESTS)))
    c = rec["certificate"]

    def maybe(v, other):
        return draw(other) if draw(hs.integers(0, 3)) == 3 else v

    def near_list(xs):
        xs = list(xs)
        if xs and draw(hs.integers(0, 3)) == 3:
            i = draw(hs.integers(0, len(xs) - 1))
            xs[i] = draw(_retyped(xs[i]))
        return maybe(xs, hs.one_of(_retyped(0), hs.lists(_retyped(1),
                                                         max_size=3)))

    rec["command"] = maybe(rec["command"], hs.one_of(
        hs.sampled_from(["certify", "sweep", ["certify"]]), _retyped(1)))
    s = c["system"]
    s["d"] = maybe(s["d"], _retyped(s["d"]))
    s["mults"], s["tags"] = near_list(s["mults"]), near_list(s["tags"])
    if draw(hs.integers(0, 5)) == 5:
        s[draw(hs.sampled_from(["d", "mults", "tags", "x"]))] = None
    if draw(hs.integers(0, 5)) == 5:
        del s[draw(hs.sampled_from(["d", "mults", "tags"]))]
    c["system"] = maybe(s, hs.one_of(_retyped(0), hs.lists(_retyped(0))))
    for field in ("prime", "seed", "trials"):
        c[field] = maybe(c[field], _retyped(c[field]))
    return rec


def _retype(i, path, v):
    """The record of KEYED_REQUESTS[i] with its certificate's field at
    path set to v."""
    rec = _stated(*KEYED_REQUESTS[i])
    obj = rec["certificate"]
    for k in path[:-1]:
        obj = obj[k]
    obj[path[-1]] = v
    return rec


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(rec=_near_records())
@example(rec=_retype(0, ["system", "d"], 13))
@example(rec=_retype(0, ["system", "d"], 13.0))
@example(rec=_retype(1, ["system", "d"], True))
@example(rec=_retype(0, ["system", "d"], "13"))
@example(rec=_retype(0, ["trials"], 3.0))
@example(rec=_retype(0, ["trials"], True))
@example(rec=_retype(1, ["trials"], True))
@example(rec=_retype(0, ["prime"], interp.DEFAULT_PRIME))
@example(rec=_retype(1, ["seed"], 1))
@example(rec=_retype(1, ["system", "mults", 0], True))
@example(rec=_retype(0, ["system", "tags", 0], 1))
@example(rec=_retype(0, ["system", "x"], None))
def test_record_is_keyed_as_its_json_text_was(rec):
    # a record is filed under a request's key exactly when the JSON text
    # of its command and run equals the request's, which tells 1, 1.0,
    # "1" and true apart
    key = store_mod._answered(rec)
    text = _old_invocation(rec["command"], rec["certificate"])
    for command, s, prime, seed, trials in KEYED_REQUESTS:
        asked = invocation(command, s.d, s.mults, s.tags, str(prime),
                           str(seed), trials)
        assert (key == asked) == (text == _old_invocation(
            *_stated(command, s, prime, seed, trials).values()))
    if key is not None:
        # a record is filed only under a key of the request's types, from
        # which its JSON text follows
        command, d, mults, tags, prime, seed, trials = key
        assert list(map(type, key)) == [str, int, tuple, tuple, str, str, int]
        assert {*map(type, mults)} <= {int} and {*map(type, tags)} <= {str}
        assert text == certificate.canonical_json([command, {
            "d": d, "mults": list(mults), "tags": list(tags)}, prime, seed,
            trials])


@pytest.mark.parametrize("make,verdict,command", [
    (lambda: certify(homogeneous_system(0, 10, -1, tag="on-cubic")),
     "nonspecial-certified", "certify"),
    (lambda: certify(homogeneous_system(13, 10, 4)), "nonspecial-certified",
     "certify"),
    (lambda: certify(homogeneous_system(3, 10, -2, tag="on-cubic")),
     "special-exact", "certify"),
    (lambda: certify(homogeneous_system(2, 2, 2)), "special-suspected",
     "certify"),
    (lambda: certify(homogeneous_system(2, 2, 2), trials=2), "inconclusive",
     "certify"),
    # the corollary's route is sweep's
    (lambda: corollary_nonspecial(homogeneous_system(174, 10, 55), 57),
     "inconclusive", "sweep"),
], ids=["exact-nonspecial", "sampled-nonspecial", "special-exact",
        "special-suspected", "direct-inconclusive", "corollary-inconclusive"])
def test_store_serves_every_verdict_kind(tmp_path, make, verdict, command):
    cert = make()
    assert cert.verdict == verdict
    path = str(tmp_path / "store.ndjson")
    with CertificateStore(path) as st:
        assert st.certificate(command, _run(cert), lambda: cert) is cert
    back = CertificateStore(path).certificate(command, _run(cert),
                                              _recomputed)
    assert back == cert
    assert (certificate.canonical_json(back.to_dict())
            == certificate.canonical_json(cert.to_dict()))


def test_store_record_of_another_route_is_a_miss(tmp_path, capsys):
    # sweep's corollary record for (13; 4^10), relabelled certify: certify
    # takes the direct route, so it computes its own certificate, prints
    # what a cold run prints and appends its record
    want = run(capsys, "certify", "13", "4x10", "--format", "json")
    assert '"method":"direct-generic"' in want[1]
    store = str(tmp_path / "certs.ndjson")
    run(capsys, "sweep", "13", "10", "4", "--store", store)
    with open(store) as f:
        rec = json.loads(f.read())
    assert rec["certificate"]["twist"] == {"k": 10, "mu": 3}
    rec["command"] = "certify"
    with open(store, "w") as f:
        f.write(json.dumps(rec) + "\n")
    assert run(capsys, "certify", "13", "4x10", "--format", "json",
               "--store", store) == want
    assert len(_records(store)) == 2

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


def test_sweep_stores_no_skipped_row(tmp_path, capsys):
    # a skipped row has no certificate: nothing is appended, and a resumed
    # run skips it again; once it fits, only that row is computed
    store = str(tmp_path / "certs.ndjson")
    argv = ["sweep", "13", "13", "4", "--format", "json", "--store", store]
    code, cold = run(capsys, *argv, "--max-matrix-entries", "7499")
    assert code == EXIT_DECIDED
    assert json.loads(cold)[0]["verdict"] == "skipped-too-large"
    assert run(capsys, *argv, "--max-matrix-entries", "7499") == (code, cold)
    assert not os.path.exists(store)
    code, out = run(capsys, *argv, "--max-matrix-entries", "7500")
    assert json.loads(out)[0]["verdict"] == "nonspecial-certified"
    assert [r["certificate"]["h0_bound"] for r in _records(store)] == \
        [json.loads(out)[0]["h0"]]


def test_sweep_stores_no_error_row(tmp_path, capsys, monkeypatch):
    # a row whose sampling fails is reported and not stored, so a rerun
    # computes it again
    def no_points(*a):
        raise certificate.SamplingError("no points")

    store = str(tmp_path / "certs.ndjson")
    argv = ["sweep", "12:13", "13", "4", "--format", "json", "--store", store]
    with monkeypatch.context() as mp:
        mp.setattr(interp, "config_for_system", no_points)
        code, out = run(capsys, *argv)
    assert code == EXIT_DECIDED
    rows = json.loads(out)
    assert [(r["verdict"], r["h0"]) for r in rows] == \
        [("nonspecial-certified", 0), ("error: no points", None)]
    assert len(_records(store)) == 1
    code, out = run(capsys, *argv)
    assert json.loads(out)[1]["verdict"] == "nonspecial-certified"
    assert len(_records(store)) == 2


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


@pytest.mark.parametrize("system,limit,verdict", [
    ("10 10 2", "4000000", "nonspecial-certified"),
    ("13 13 4", "4000000", "nonspecial-certified"),
    ("13 13 4", "7499", "skipped-too-large"),
], ids=["peeled", "sampled", "too-large"])
def test_direct_sweep_row_peels_the_cubic_once(capsys, monkeypatch, system,
                                               limit, verdict):
    # linsys.exact_h0 runs once per direct row, in interp.certify, which
    # sizes the framed matrix only when the peel leaves the row undecided:
    # (10; 2^10) is peeled, (13; 4^13) samples 100 x 75 = 7500 cells
    calls = []
    real = linsys.cubic_bound
    monkeypatch.setattr(linsys, "cubic_bound",
                        lambda s: calls.append(s) or real(s))
    code, out = run(capsys, "sweep", *system.split(), "--format", "json",
                    "--max-matrix-entries", limit)
    assert code == EXIT_DECIDED
    assert json.loads(out)[0]["verdict"] == verdict
    d, n, m = map(int, system.split())
    assert calls == [homogeneous_system(d, n, m)]


@pytest.mark.parametrize("command", [["bound", "13", "10", "4"],
                                     ["sweep", "10:20", "10:12", "2:4"]])
def test_negative_max_matrix_entries_is_a_usage_error(capsys, command):
    # refused before any twist or row runs; 0 is a valid limit
    assert main([*command, "--max-matrix-entries", "-1"]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and "--max-matrix-entries: must be at least 0, not -1" in err
    assert main([*command, "--max-matrix-entries", "0"]) == EXIT_DECIDED


def test_sweep_empty_range(capsys):
    code, out = run(capsys, "sweep", "6:5", "10", "1", "--format", "csv")
    assert code == EXIT_DECIDED
    assert out.strip() == "d,n,m,v,mu,integral,verdict,h0"


def test_cli_output_deterministic(capsys):
    argv = ["certify", "13", "4x10", "--seed", "5", "--format", "json"]
    _, out1 = run(capsys, *argv)
    _, out2 = run(capsys, *argv)
    assert out1 == out2


def test_store_put_is_seen_by_another_reader_at_once(tmp_path):
    # each record is flushed before put returns, with the handle still open
    path = str(tmp_path / "store.ndjson")
    with CertificateStore(path) as st:
        for i in range(3):
            cert = certify(homogeneous_system(13, 10, 4), seed=i)
            st.certificate("certify", _run(cert), lambda: cert)
            assert len(_records(path)) == i + 1
            reader = CertificateStore(path)
            assert reader.certificate("certify", _run(cert),
                                      _recomputed) == cert


def test_sweep_opens_its_store_once_and_keys_each_record_once(
        tmp_path, capsys, monkeypatch):
    appends, keys = [], []

    def counting_open(path, mode="r", *args, **kwargs):
        if "a" in mode:
            appends.append(path)
        return open(path, mode, *args, **kwargs)

    def counting_invocation(*args):
        keys.append(invocation(*args))
        return keys[-1]

    # the store's module-level open shadows the builtin one, and every key
    # the store builds, for a loaded record or a lookup, is an invocation
    monkeypatch.setattr(store_mod, "open", counting_open, raising=False)
    monkeypatch.setattr(store_mod, "invocation", counting_invocation)
    store = str(tmp_path / "certs.ndjson")
    argv = ["sweep", "10:12", "10", "4", "--store", store]
    code, cold = run(capsys, *argv)
    recs = _records(store)
    assert code == EXIT_DECIDED and len(recs) == 3
    # each row's key is built once, for its lookup, and the record put
    # appends is filed under that key
    built = sorted(keys)  # before _answered below adds the records' keys
    assert appends == [store]
    assert built == sorted(_answered(r) for r in recs)

    # a fully served resume opens nothing for append: each loaded record
    # is keyed once, and each row once for its lookup
    appends.clear()
    keys.clear()
    assert run(capsys, *argv) == (EXIT_DECIDED, cold)
    built = sorted(keys)
    assert appends == []
    assert built == sorted(2 * [_answered(r) for r in recs])


def test_store_roundtrip(tmp_path):
    path = str(tmp_path / "store.ndjson")
    cert = certify(homogeneous_system(4, 10, 1, tag="on-cubic"), seed=1)
    stated = (homogeneous_system(4, 10, 1, tag="on-cubic"),
              interp.DEFAULT_PRIME, 1, 3)
    assert _run(cert) == stated
    with CertificateStore(path) as st:
        assert st.certificate("certify", stated, lambda: cert) is cert
    (rec,) = _records(path)
    # the record states its run once, in its certificate: no config, no
    # key and no copied system
    assert rec == {"schema_version": 3, "command": "certify",
                   "certificate": cert.to_dict(),
                   "tool_version": fatpoints.__version__}
    # and is filed under that run as its certificate's JSON states it
    prime = str(interp.DEFAULT_PRIME)
    assert {k: rec["certificate"][k] for k in ("system", "prime", "seed",
                                               "trials")} == {
        "system": {"d": 4, "mults": [1] * 10, "tags": ["on-cubic"] * 10},
        "prime": prime, "seed": "1", "trials": 3}
    assert _answered(rec) == invocation(
        "certify", 4, (1,) * 10, ("on-cubic",) * 10, prime, "1", 3)

    # served from the file, with nothing computed or appended
    with CertificateStore(path) as st2:
        assert st2.certificate("certify", stated, _recomputed) == cert
    assert _records(path) == [rec]


def _old_store(tmp_path, name, schema):
    """A copy of the fixture store tests/data/name, every record of the
    store schema given; returns its path and text."""
    with open(os.path.join(os.path.dirname(__file__), "data", name)) as f:
        lines = f.read()
    recs = [json.loads(line) for line in lines.splitlines()]
    assert len(recs) == 6 and all(r["schema_version"] == schema and "config"
                                  in r for r in recs)
    store = tmp_path / "certs.ndjson"
    store.write_text(lines)
    return store, lines


# the four runs that wrote each fixture store, in order, into one file
OLD_STORE_RUNS = pytest.mark.parametrize("argv", [
    ["sweep", "10:12", "10", "4"],
    ["sweep", "13", "10", "4"],
    ["certify", "13", "4x10"],
    ["certify", "40", "20x5"],
], ids=["sweep-twist-past-m", "sweep-corollary", "certify-sampled",
        "certify-special"])


@OLD_STORE_RUNS
def test_store_serves_schema_1_records(tmp_path, capsys, argv):
    # a store written by schema 1, whose records also carried a config, a
    # sha256 key and a copy of the system; their command and certificate
    # are unchanged, so each invocation is served with nothing appended
    store, lines = _old_store(tmp_path, "store-schema1.ndjson", 1)
    assert all("key" in json.loads(line) for line in lines.splitlines())
    argv = argv + ["--format", "json"]
    want = run(capsys, *argv)
    assert run(capsys, *argv, "--store", str(store)) == want
    assert store.read_text() == lines


@OLD_STORE_RUNS
def test_store_serves_schema_2_records(tmp_path, capsys, argv):
    # a store written by schema 2, whose records also stated their run in
    # a config, which is not read: each invocation is served from the
    # record's certificate with nothing appended
    store, lines = _old_store(tmp_path, "store-schema2.ndjson", 2)
    argv = argv + ["--format", "json"]
    want = run(capsys, *argv)
    assert run(capsys, *argv, "--store", str(store)) == want
    assert store.read_text() == lines


# the six runs that wrote this store of schema 3, in order, into one file:
# 99 grid rows with no evidence, sampled certificates at both placements,
# one with a fixed component, and one sampled sweep row
SCHEMA3_STORE = os.path.join(os.path.dirname(__file__), "data",
                             "store-schema3.ndjson")
SCHEMA3_RUNS = [
    ["sweep", "10:20", "10:12", "2:4"],
    ["certify", "13", "4x10"],
    ["certify", "40", "20x5"],
    ["certify", "40", "20x5", "--placement", "cubic"],
    ["certify", "13", "4x10,-2"],
    ["sweep", "22", "16", "7"],
]


@pytest.mark.parametrize("argv", SCHEMA3_RUNS, ids=[
    "sweep-grid", "certify-sampled", "certify-special",
    "certify-special-cubic", "certify-fixed", "sweep-sampled"])
def test_store_serves_schema_3_records(tmp_path, capsys, argv):
    # a store of schema 3, as this schema's first code wrote it: each run
    # prints the bytes of the cold run and appends nothing
    path = SCHEMA3_STORE
    with open(path) as f:
        lines = f.read()
    store = tmp_path / "certs.ndjson"
    store.write_text(lines)
    argv = argv + ["--format", "json"]
    want = run(capsys, *argv)
    assert run(capsys, *argv, "--store", str(store)) == want
    assert store.read_text() == lines


def test_schema_3_store_holds_only_records_it_serves():
    # every record of the fixture passes the store's checks, and the six
    # runs above answer all 104 of them
    path = SCHEMA3_STORE
    with open(path) as f:
        recs = [json.loads(line) for line in f]
    assert len(recs) == 99 + 5 and all(r["schema_version"] == 3 for r in recs)
    with CertificateStore(path) as st:
        for rec in recs:
            assert _lookup(st, rec) is not None, rec
    assert sum(bool(r["certificate"]["evidence"]) for r in recs) == 5


def test_store_serves_a_record_only_for_the_run_its_certificate_states(
        tmp_path, capsys):
    # the schema-2 record of certify 13 4x10 with its config's prime edited:
    # the config is not read, so the record answers only the default-prime
    # run its certificate states, and a run at the edited prime is computed
    # and appended
    store, lines = _old_store(tmp_path, "store-schema2.ndjson", 2)
    (rec,) = [r for r in map(json.loads, lines.splitlines())
              if r["command"] == "certify" and r["certificate"]["system"]["d"] == 13]
    rec["config"]["prime"] = "1000003"
    store.write_text(json.dumps(rec) + "\n")
    lines = store.read_text()

    argv = ["certify", "13", "4x10", "--format", "json"]
    other = argv + ["--prime", "1000003"]
    code, out = run(capsys, *other, "--store", str(store))
    assert (code, out) == run(capsys, *other)
    assert json.loads(out)["prime"] == "1000003"
    recs = _records(str(store))
    assert len(recs) == 2 and store.read_text().startswith(lines)
    assert recs[1]["certificate"]["prime"] == "1000003"
    size = store.stat().st_size
    assert run(capsys, *other, "--store", str(store)) == (code, out)
    # the edited record still answers its own run, with nothing appended
    code, out = run(capsys, *argv, "--store", str(store))
    assert (code, out) == run(capsys, *argv)
    assert json.loads(out) == rec["certificate"]
    assert store.stat().st_size == size


def test_canonical_json_is_the_one_encoding(tmp_path, capsys):
    # the bytes of sorted, compact json.dumps on a stored record, its
    # certificate and its invocation; certify prints the stored certificate
    path = str(tmp_path / "store.ndjson")
    code, out = run(capsys, "certify", "13", "4x10", "--format", "json",
                    "--store", path)
    assert code == EXIT_DECIDED
    with open(path) as f:
        line = f.read()
    rec = json.loads(line)
    assert line == certificate.canonical_json(rec) + "\n"
    assert out == certificate.canonical_json(rec["certificate"]) + "\n"
    cert = certificate.certificate_from_dict(rec["certificate"])
    assert (cert.evidence
            and certificate.canonical_json(cert.to_dict()) + "\n" == out)
    # the invocation is the command and the run the certificate states,
    # the same tuple from the record's JSON as from a request's values
    system, prime, seed, trials = _run(cert)
    c = rec["certificate"]
    assert _answered(rec) == invocation(
        rec["command"], c["system"]["d"], tuple(c["system"]["mults"]),
        tuple(c["system"]["tags"]), c["prime"], c["seed"], c["trials"]) \
        == invocation("certify", system.d, system.mults, system.tags,
                      str(prime), str(seed), trials)
    for obj in (rec, cert.to_dict()):
        assert certificate.canonical_json(obj) == json.dumps(
            obj, sort_keys=True, separators=(",", ":"))
    # the output tells 1, 1.0 and true apart, as the store's keys do
    assert [certificate.canonical_json({"trials": v}) for v in (1, 1.0, True)] \
        == ['{"trials":1}', '{"trials":1.0}', '{"trials":true}']


def _one_record_store(path):
    cert = certify(homogeneous_system(4, 10, 1, tag="on-cubic"), seed=1)
    with CertificateStore(path) as st:
        st.certificate("certify", _run(cert), lambda: cert)
    return cert


def test_store_drops_torn_last_line(tmp_path, capsys):
    path = str(tmp_path / "store.ndjson")
    cert = _one_record_store(path)
    with open(path) as f:
        whole = f.read()
    with open(path, "a") as f:
        f.write(whole[:40])  # a second record cut off mid-write
    capsys.readouterr()

    with CertificateStore(path) as st:
        assert "torn last line" in capsys.readouterr().err
        # the whole record is served, and the next append replaces the torn
        # tail, so the file loads cleanly
        assert st.certificate("certify", _run(cert), _recomputed) == cert
        other = certify(cert.system, seed=2)
        st.certificate("certify", _run(other), lambda: other)
    assert len(_records(path)) == 2
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
    assert len(_records(path)) == 3


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


@pytest.mark.parametrize("line", [
    "{}", "[1]", '{"key": "0"}',
    '{"command": "certify", "certificate": {}}',
    '{"command": "certify", "certificate": [1]}',
    '{"command": "certify", "config": {"prime": "5", "seed": "0", '
    '"trials": 1}, "certificate": {"system": {}}}',
    '{"certificate": {"system": {}, "prime": "5", "seed": "0", "trials": 1}}',
], ids=["no-key", "array", "schema-1-key-only", "no-certificate-system",
        "certificate-array", "run-only-in-config", "no-command"])
def test_store_line_that_is_not_a_keyed_object_is_corrupt(tmp_path, capsys,
                                                          line):
    # a record is keyed by the invocation its own command and certificate
    # system, prime, seed and trials name; a line without them names none,
    # and a schema-2 config is never read in their place
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
