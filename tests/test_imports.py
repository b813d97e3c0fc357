"""numpy loads with the first matrix, not with the package, and hashlib
and OpenSSL's _hashlib never: trial seeds hash with the interpreter's own
SHA-256.  A run that builds no matrix loads neither dataclasses nor
inspect (which dataclasses imports, with ast, dis and tokenize): the
package's value classes are plain classes and NamedTuples.  numpy imports
inspect itself, so runs that build a matrix are not checked for it.

Each check runs in a fresh interpreter on this package, as a shell or the
benchmark's worker would, and reads whether numpy, hashlib, _hashlib,
dataclasses and inspect were imported by the end.
"""

import json
import os
import subprocess
import sys

import pytest

import fatpoints

SRC = os.path.dirname(os.path.dirname(fatpoints.__file__))

MODULES = ("numpy", "hashlib", "_hashlib", "dataclasses", "inspect")
# a run that builds a matrix loads numpy, and no other of MODULES but
# inspect, which is not read (cli_run(...)[:-1])
MATRIX = (True, False, False, False)

# runs the CLI in process, then reports its exit code and whether each of
# MODULES was imported, as the last line of stderr
PROBE = f"""
import json, sys
from fatpoints import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code] + [m in sys.modules for m in {MODULES!r}]),
      file=sys.stderr)
"""


def fresh(*args):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def cli_run(*argv):
    """(exit code, then whether each of MODULES was imported) of one CLI
    call in a fresh interpreter."""
    return tuple(json.loads(fresh("-c", PROBE, *argv).stderr.splitlines()[-1]))


# no module of MODULES loaded: the exit code is all cli_run reports
NONE = (False,) * len(MODULES)


@pytest.mark.parametrize("code", [
    "import fatpoints",
    "import fatpoints.cli as c; c.build_parser()",
], ids=["package", "cli-parser"])
def test_import_loads_no_numpy(code):
    out = fresh("-c", f"import sys; {code}; "
                      f"print([m in sys.modules for m in {MODULES!r}])")
    assert out.stdout == f"{list(NONE)}\n"


@pytest.mark.parametrize("argv,code", [
    (["expdim", "13", "4x10"], 0),
    (["reduce", "28", "12", "8"], 0),
    # the benchmark worker's warm-up, decided by the cubic peel
    (["certify", "4", "1x10"], 0),
    (["certify", "13", "4x10", "--prime", "4"], 1),
], ids=["expdim", "reduce", "certify-peeled", "usage-error"])
def test_runs_with_no_matrix_load_no_numpy(argv, code):
    assert cli_run(*argv) == (code, *NONE)


def test_sweep_grid_loads_no_numpy_cold_or_resumed(tmp_path):
    # the store files each record under its invocation, a tuple built
    # with no JSON encoding or hashing, and no row is sampled
    store = str(tmp_path / "certs.ndjson")
    for _ in ("cold", "resumed"):
        assert cli_run("sweep", "10:20", "10:12", "2:4",
                       "--store", store) == (0, *NONE)
    with open(store) as f:
        assert len(f.readlines()) == 99


def test_sampled_certify_loads_numpy():
    # but no hashlib: derive_seed's trial seeds use the built-in SHA-256
    assert cli_run("certify", "13", "4x10")[:-1] == (0, *MATRIX)


def test_store_hit_with_evidence_loads_no_numpy_or_hashlib(tmp_path):
    # the cold run samples; the served one derives the trial seeds of the
    # record's evidence again (certificate_from_dict), with no matrix
    store = str(tmp_path / "certs.ndjson")
    cold, served = (cli_run("certify", "13", "4x10", "--store", store)
                    for _ in ("cold", "served"))
    assert cold[:-1] == (0, *MATRIX) and served == (0, *NONE)
    with open(store) as f:
        assert len(f.readlines()) == 1
