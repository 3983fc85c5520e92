"""Golden digests: the demo pipeline must reproduce its artifacts byte for byte.

The demo corpus is written with a relative `run.ini` (the generator runs in
the temporary directory), so the config hash inside `results.json` does not
depend on where the test runs.  The digests must also hold with the built-in
`sum` of CPython 3.12 and later, which compensates float rounding, so the
bytes do not depend on the interpreter version.  A change that alters any of these files
updates the digest here and says why in CHANGES.md.
"""

import builtins
import hashlib
import math
import subprocess
import sys
from pathlib import Path

from storynets import cli

DEMO_SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "make_demo_corpus.py"

GOLDEN = {
    "features.csv": "4f22e79b063ea091f58653f61790aa4a8e0342dc310daceeb5c33d85d4a0ef06",
    "stationary_r0.5.csv": "ce795d75938d815ec398bda1f477b8a325e49e4ea12af696fdcba9905bb2349c",
    "trajectories_r0.5.csv": "9ee746d6cba77fe5188ea9ddf8d203c1f8e2093f1a98fc534feea02cdbd566d6",
    "networks.jsonl": "280beb108b02666b8f663896c9e527eadb329402839b873a9e95b51a48118fc7",
    "emotions.csv": "956ea0a8863256e4c86717e60f854c7e9dd0b00b80e7cc2b4b7ac12261124635",
    "results.json": "0fccf35de287339412bdda35935fe68e51b25a9655d1ea8a35b642420681a47e",
    "builder_comparison.csv": "4c9857cfbcbc41741ebc6d0af2ecdecf14a52bbd845f0ebf5363953b72bfc7e8",
    "attributions_mean.csv": "16d2dfa691cd7d09b47bb40758e71adbdbc227350c010018fc2078e87b71fb17",
    "report.txt": "62ad7e26cea10188f33e4fe8d39127f3da917cdc88b6a9c7d3c5664b0aee9438",
    "corpus.jsonl": "56bd759a2221486f5080bfb85b370b1ca599276cf658cda37c70da9a9eb1fb8b",
    "exclusions.csv": "60b013fc7648164697bf4c9f2e912fb306732e81fa49bff52f0e379abc8d7666",
}

# One digest per output directory: each file's sha256, keyed by its relative
# name, folded in sorted name order.
GOLDEN_DIRS = {
    "histograms": "df6cfd08669e9197b0f33bb0294e04edff142ff58960012a333b8f6db18efd94",
    "edges": "d832f5351efbb83a18fb8b89559b32235e0b73666637aa1a704165cefe200d65",
}


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    names = sorted(p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file())
    for name in names:
        h.update(name.encode() + b"\0" + hashlib.sha256((root / name).read_bytes()).digest())
    return h.hexdigest()


def _compensated_sum(iterable, /, start=0):
    """The built-in `sum` as CPython 3.12 and later run it: after a run of
    exact ints, exact floats (and machine-size ints) are added with
    Neumaier's compensation, folded in at the end or before the first other
    item, which every later item follows by plain addition."""
    items = iter(iterable)
    total = start
    if type(total) is int:
        for item in items:
            total = total + item
            if type(item) not in (int, bool) or not -(2**63) <= total < 2**63:
                break
    if type(total) is float:
        c = 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                c += (total - t) + item if abs(total) >= abs(item) else (item - t) + total
                total = t
            elif isinstance(item, int) and -(2**63) <= item < 2**63:
                total += float(item)
            else:
                total = (total + c if c and math.isfinite(c) else total) + item
                break
        else:
            return total + c if c and math.isfinite(c) else total
    for item in items:
        total = total + item
    return total


def _assert_demo_artifacts_match(tmp_path, monkeypatch):
    subprocess.run(
        [sys.executable, str(DEMO_SCRIPT), "."],
        cwd=tmp_path,
        check=True,
        capture_output=True,
    )
    monkeypatch.chdir(tmp_path)
    for stage in cli.STAGES:
        assert cli.main([stage, "--config", "run.ini"]) == 0, stage
    digests = {
        name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
        for name in GOLDEN
    }
    assert digests == GOLDEN
    assert {name: _tree_digest(tmp_path / "out" / name) for name in GOLDEN_DIRS} == GOLDEN_DIRS


def test_demo_artifacts_match_golden_digests(tmp_path, monkeypatch):
    _assert_demo_artifacts_match(tmp_path, monkeypatch)


def test_golden_digests_hold_with_the_compensated_sum_of_python_3_12(tmp_path, monkeypatch):
    # added left to right, as before 3.12, ten tenths make 0.9999999999999999
    assert _compensated_sum([0.1] * 10) == 1.0
    assert _compensated_sum([1e100, 1.0, -1e100, 1.0]) == 2.0
    assert _compensated_sum([1, 2, True]) == 4 and _compensated_sum([[1]], []) == [1]
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    _assert_demo_artifacts_match(tmp_path, monkeypatch)
