"""Byte-exact CLI output against recorded answers.

The files under tests/golden/ hold the output of passing runs: `verify` on
Weyl (N=6), lattice I2 (N=4), I2 with its coproducts shifted by alpha = 1
(N=4), the degenerate rank-one lattice form (N=4) and qheis affine D4 (N=3,
whose 35 x 35 Gram component is certified in F_p), `verify --json` on
qheis A2 (N=3) and on the rank-one form (N=4, which pins the order of its
reports and its skipped list), `fock-matrix --json` on A2, lattice I2 and
Weyl, two `normal-order` answers on A2 (the second, of an h-word, has 84
terms over Q(q) denominators), two on Weyl (together they take every branch
of the printer: a quotient coefficient, a coefficient -1, a monomial -q and
a unit term), `info` on Weyl (text), on A2 (`--json`) and
on the shifted I2 (both; they pin the `rank: 1` line and each twisting form
printed as its 1x1 matrix, `([c], [c])` and `[[c]]`), and the printout of
each script in demos/.
A change that keeps every verdict must keep this output byte for byte.

Basis labels hash by address, so `verify --json` is also run in fresh
interpreters under two hash seeds, which must print the same bytes.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from heisdouble import cli

GOLDEN = Path(__file__).parent / "golden"
ROOT = Path(__file__).parent.parent

CASES = [
    ("verify-weyl-6.txt", "weyl.json", ["verify", "--max-degree", "6"]),
    ("verify-lattice-i2-4.txt", "lattice-i2.json", ["verify", "--max-degree", "4"]),
    ("verify-lattice-i2-shift-4.txt", "lattice-i2-shift.json",
     ["verify", "--max-degree", "4"]),
    ("verify-lattice-rank-one-4.txt", "lattice-rank-one.json",
     ["verify", "--max-degree", "4"]),
    ("verify-lattice-rank-one-4.json", "lattice-rank-one.json",
     ["verify", "--max-degree", "4", "--json"]),
    ("verify-qheis-d4-affine-3.txt", "qheis-d4-affine.json",
     ["verify", "--max-degree", "3"]),
    ("verify-qheis-a2-3.json", "qheis-a2.json",
     ["verify", "--max-degree", "3", "--json"]),
    ("fock-matrix-qheis-a2.json", "qheis-a2.json",
     ["fock-matrix", "--expr", "p'[2,1] + p[1,1] p'[1,2]", "--in-degree", "2",
      "--json"]),
    ("fock-matrix-lattice-i2.json", "lattice-i2.json",
     ["fock-matrix", "--expr", "p'[2,1]*p'[1,2]", "--in-degree", "3", "--json"]),
    ("fock-matrix-weyl.json", "weyl.json",
     ["fock-matrix", "--expr", "x*d + d^2", "--in-degree", "4", "--json"]),
    ("normal-order-qheis-a2.txt", "qheis-a2.json",
     ["normal-order", "--expr", "p'[2,1] p[2,2] p'[1,2]"]),
    ("normal-order-hword-qheis-a2.txt", "qheis-a2.json",
     ["normal-order", "--expr", "h'[2,2]*h'[3,1]*h[2,2]*h[3,2]"]),
    ("normal-order-weyl-quotient.txt", "weyl.json",
     ["normal-order", "--expr", "(1+q)/(1-q^3)*d*x - x"]),
    ("normal-order-weyl-minus.txt", "weyl.json", ["normal-order", "--expr=-d*x"]),
    ("info-weyl.txt", "weyl.json", ["info"]),
    ("info-qheis-a2.json", "qheis-a2.json", ["info", "--json"]),
    ("info-lattice-i2-shift.txt", "lattice-i2-shift.json", ["info"]),
    ("info-lattice-i2-shift.json", "lattice-i2-shift.json", ["info", "--json"]),
]


@pytest.mark.parametrize("expected, config, argv", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(expected, config, argv, capsys):
    rc = cli.main(argv + ["--instance", str(GOLDEN / config)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == (GOLDEN / expected).read_text()


SEED_CASES = [
    (GOLDEN / "weyl.json", "8"),
    (ROOT / "bench" / "configs" / "qheis-a2.json", "4"),
    (ROOT / "bench" / "configs" / "lattice-i2.json", "5"),
]


@pytest.mark.parametrize("config, degree", SEED_CASES,
                         ids=["weyl-8", "qheis-a2-4", "lattice-i2-5"])
def test_verify_json_is_independent_of_the_hash_seed(config, degree):
    argv = [sys.executable, "-m", "heisdouble.cli", "verify", "--instance",
            str(config), "--max-degree", degree, "--json"]
    pythonpath = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    procs = [subprocess.Popen(argv, stdout=subprocess.PIPE,
                              env=dict(os.environ, PYTHONHASHSEED=seed,
                                       PYTHONPATH=pythonpath))
             for seed in ("0", "1")]
    outs = [p.communicate()[0] for p in procs]
    assert [p.returncode for p in procs] == [0, 0]
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["status"] == "pass"


def test_python_m_heisdouble_matches_golden():
    # the package runs as a module, as the console script does
    argv = [sys.executable, "-m", "heisdouble", "verify", "--instance",
            str(GOLDEN / "lattice-i2.json"), "--max-degree", "4"]
    pythonpath = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    r = subprocess.run(argv, capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=pythonpath))
    assert r.returncode == 0, r.stderr
    assert r.stdout == (GOLDEN / "verify-lattice-i2-4.txt").read_text()


DEMOS = sorted((ROOT / "demos").glob("demo_*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_matches_golden(demo):
    pythonpath = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                       env=dict(os.environ, PYTHONPATH=pythonpath))
    assert r.returncode == 0, r.stderr
    name = demo.stem.removeprefix("demo_")
    assert r.stdout == (GOLDEN / ("demo-%s.txt" % name)).read_text()
