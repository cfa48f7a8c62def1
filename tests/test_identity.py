"""tools/identity.py: its comparison names the first difference of each output."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import identity  # tools/ is not a package: its modules import each other by name


def _outputs(digest="d1", problems=(), artifact="h1", exit_status=0, slope="-0.9649"):
    return {
        "ops": {"solve/d1": {"digest": digest, "problems": list(problems)},
                "couple/run": {"digest": "c", "problems": []}},
        "manifests": {"solve-d1": {"artifacts": {"lower.csv": "a", "upper.csv": artifact},
                                   "config": "seed = 1\n", "exit_status": exit_status},
                      "stationary": {"artifacts": {"v.csv": "v"}, "config": "",
                                     "exit_status": 0}},
        "acceptance": ["ACCEPTANCE  9 [killed BM spectral decay]: PASS  (log-survival "
                       f"slope {slope} within -1 +- 0.1, 3.2s)",
                       "ACCEPTANCE 10 [determinism across workers]: PASS  (identical)"],
    }


def test_equal_outputs_differ_only_in_timings():
    parent, change = _outputs(), _outputs()
    change["acceptance"][0] = change["acceptance"][0].replace("3.2s", "41.0s")
    assert identity.compare(parent, change) == [
        ("op solve/d1", None), ("op couple/run", None), ("manifest solve-d1", None),
        ("manifest stationary", None), ("acceptance 9", None), ("acceptance 10", None)]


def test_planted_differences_are_named():
    parent = _outputs()
    change = _outputs(digest="d2", artifact="h2", slope="-0.9650")
    change["ops"]["select/replica"] = {"digest": "s", "problems": []}
    del change["manifests"]["stationary"]
    diffs = dict(identity.compare(parent, change))
    assert diffs == {
        "op solve/d1": "digest d1 != d2", "op couple/run": None,
        "op select/replica": "missing in parent",
        "manifest solve-d1": "artifact upper.csv differs",
        "manifest stationary": "missing in change",
        "acceptance 9": "'ACCEPTANCE  9 [killed BM spectral decay]: PASS  (log-survival "
                        "slope -0.9649 within -1 +- 0.1)' != 'ACCEPTANCE  9 [killed BM "
                        "spectral decay]: PASS  (log-survival slope -0.9650 within -1 +- 0.1)'",
        "acceptance 10": None}


def test_oracle_problems_and_manifest_fields_are_compared():
    diffs = dict(identity.compare(_outputs(), _outputs(problems=["width grew"], exit_status=1)))
    assert diffs["op solve/d1"] == "oracle problems [] != ['width grew']"
    assert diffs["manifest solve-d1"] == "manifest field exit_status differs"
