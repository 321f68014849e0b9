"""The README's library sketch runs as printed and shows what its comments say."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    section = README.read_text().split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(compile(code, str(README), "exec"), scope)
    assert scope["weights"].size == scope["angles"].size == 4
    detected = scope["detect_bursts"](scope["series"])
    predicted = [float(f) for f in scope["visible_burst_times"](2, 4)]
    assert len(detected) == len(predicted)
    np.testing.assert_allclose(detected, predicted, rtol=0, atol=1e-4)
    dips = scope["detect_dips"](scope["ent"])
    step = scope["ent"].grid.step
    for t in {j / 8 for j in range(1, 5)} | {j / 12 for j in range(1, 7)}:
        assert min(abs(d - t) for d in dips) <= 2 * step, t
