"""RSICD-scale outputs pinned by digest.

The rsicd-analyze and noisy-correct inputs of ``perfbench/gen.py`` (54,605
captions each) are generated at one fixed seed and run through the steps that
``perfbench/measure.py`` defines. The sha256 of every input and every output
file must equal ``data/pinned_scale.json``: an input digest that moves is a
generator change, an output digest that moves is a program change. The test
runs under whatever string-hash seed the session has, so repeated runs also
sample output that depends on set or dict order.

The corpus is ASCII only: the regex path of ``tokens._words`` is covered by
its own tests, not here.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.append(str(PERFBENCH))

import check  # noqa: E402
import gen  # noqa: E402
import measure  # noqa: E402

PINNED = Path(__file__).parent / "data" / "pinned_scale.json"
SEED = 1  # chosen once, before the digests were recorded; never changed to make one match


def scale_digests(workload: str, work: Path) -> dict:
    """Input and output digests of one workload pass at ``SEED``, with each step's exit code."""
    inputs, out = work / "inputs", work / "out"
    manifest = gen.generate(workload, SEED, inputs)
    if workload == "rsicd-analyze":
        steps = measure.analyze_steps(inputs, out)
    else:
        steps = measure.noisy_steps(inputs, out, SEED)
    out.mkdir(parents=True)
    _, codes, _ = measure.run_pass(steps, None)
    return {"exit_codes": codes, "inputs": manifest["input_sha256"], "outputs": check.digests(out)}


@pytest.mark.parametrize("workload", ["rsicd-analyze", "noisy-correct"])
def test_rsicd_scale_outputs_pinned(tmp_path, workload):
    pinned = json.loads(PINNED.read_text("utf-8"))
    assert pinned["seed"] == SEED
    got = scale_digests(workload, tmp_path)
    want = pinned[workload]
    assert got["inputs"] == want["inputs"], "perfbench/gen.py writes other inputs than were pinned"
    assert got["exit_codes"] == want["exit_codes"]
    assert got["outputs"] == want["outputs"]
