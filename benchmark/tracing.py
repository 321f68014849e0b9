"""Spans around the calls into each kerrcat module, kept in memory.

A span records (id, layer, function, start, end, parent id, request id).  The
wrappers are installed on every module attribute that binds a traced
function, including the names other modules imported (`moments` and
`entropy` bind `evolve_amplitudes` and `superposed_state` at import time), so
cross-module calls are captured without touching the program.

Counts of work are taken in the same wrappers, from the arguments and
results, after the span has closed.  A layer's self time is the time of its
spans minus the time covered by their child spans.
"""

from __future__ import annotations

import json
import math
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("states", "evolution", "moments", "entropy", "wigner", "schedule", "cli")

# (module, function) traced; the layer is the module that defines the function
TRACED = {
    "states": ["superposed_state"],
    "evolution": ["evolve", "evolve_amplitudes"],
    "moments": ["moment_series"],
    "entropy": ["entropy_series"],
    "wigner": ["default_grid", "wigner_field", "count_lobes"],
    "schedule": ["detect_bursts", "detect_minima"],
}


def wigner_steps(amplitudes: np.ndarray) -> tuple[int, int]:
    """(recurrence steps, steps on a nonzero density-matrix element) per grid point.

    Follows the Fock-basis evaluation: support cut at 1e-14 of the largest
    magnitude, one Laguerre recurrence over n = 1..top-k for every diagonal k
    whose elements rho_{n+k,n} are not all below 1e-32.
    """
    mags = np.abs(amplitudes)
    top = int(np.flatnonzero(mags > 1e-14 * mags.max()).max())
    c = amplitudes[: top + 1]
    steps = useful = 0
    for k in range(top + 1):
        pair = c[k:] * c[: c.size - k].conj()
        if np.max(np.abs(pair)) > 1e-32:
            steps += pair.size - 1
            useful += int(np.count_nonzero(pair[1:]))
    return steps, useful


class Tracer:
    def __init__(self, kc):
        self.kc = kc
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.request = -1
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.failed: dict[str, int] = defaultdict(int)
        self._saved: list[tuple] = []
        self._originals: dict[str, object] = {}
        self._counters = {
            ("evolution", "evolve"): self._count_evolve,
            ("evolution", "evolve_amplitudes"): self._count_batch,
            ("moments", "moment_series"): self._count_moments,
            ("entropy", "entropy_series"): self._count_entropy,
            ("wigner", "wigner_field"): self._count_wigner,
            ("states", "superposed_state"): self._count_states,
            ("cli", "write_series"): self._count_written,
            ("cli", "write_field"): self._count_written,
        }

    # wrapping --------------------------------------------------------------

    def wrap(self, layer: str, fn):
        counter = self._counters.get((layer, fn.__name__))

        def traced(*args, **kwargs):
            sid = len(self.spans)
            self.spans.append(None)  # reserve the id; filled when the call ends
            parent = self.stack[-1] if self.stack else -1
            self.stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.failed[layer] += 1
                raise
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[sid] = (sid, layer, fn.__name__, start, end, parent, self.request)
            if counter is not None:
                counter(result, *args, **kwargs)
            return result

        traced.__name__ = fn.__name__
        traced.__wrapped__ = fn
        return traced

    def install(self, runner) -> None:
        """Wrap every traced function wherever a kerrcat module binds it."""
        modules = [getattr(self.kc, name) for name in LAYERS]
        for layer, names in TRACED.items():
            home = getattr(self.kc, layer)
            for name in names:
                original = getattr(home, name)
                self._originals[name] = original
                wrapped = self.wrap(layer, original)
                for mod in modules:
                    if getattr(mod, name, None) is original:
                        self._saved.append((mod, name, original))
                        setattr(mod, name, wrapped)
        for key, fn in list(runner.writers.items()):
            runner.writers[key] = self.wrap("cli", fn)
            self._saved.append((runner.writers, key, fn))

    def uninstall(self) -> None:
        for target, name, original in reversed(self._saved):
            if isinstance(target, dict):
                target[name] = original
            else:
                setattr(target, name, original)
        self._saved.clear()

    # counts ----------------------------------------------------------------

    def _count_states(self, result, *args, **kwargs):
        self.counts["states"]["calls"] += 1

    def _count_evolve(self, result, state, *args, **kwargs):
        self.counts["evolution"]["amplitude_updates"] += state.amplitudes.size

    def _count_batch(self, result, amplitudes, params, times, *args, **kwargs):
        self.counts["evolution"]["amplitude_updates"] += len(times) * amplitudes.size

    def _count_moments(self, result, spec, observable, power, params, grid=None, *args, **kwargs):
        self.counts["moments"]["ladder_row_applications"] += power * result.values.size

    def _count_entropy(self, result, spec, params, grid, pair, *args, **kwargs):
        kc = self.kc
        n_max = int(result.meta["n_max"])
        state = self._originals["superposed_state"](spec, n_max)
        x_size = kc.entropy.default_grid_for(state).size
        samples = result.values.size
        # two (samples x dim) complex by (dim x x_size) real products, 4 flop per term each
        self.counts["entropy"]["projection_gflop"] += 8.0 * samples * (n_max + 1) * x_size / 1e9
        table_mb = (n_max + 1) * x_size * 8 / 1e6
        self.counts["entropy"]["basis_table_mb"] = max(self.counts["entropy"]["basis_table_mb"], table_mb)

    def _count_wigner(self, result, state, *args, **kwargs):
        points = result.values.size
        steps, useful = wigner_steps(state.amplitudes)
        self.counts["wigner"]["grid_points"] += points
        self.counts["wigner"]["recurrence_steps"] += points * steps
        self.counts["wigner"]["useful_steps"] += points * useful

    def _count_written(self, result, *args, **kwargs):
        self.counts["cli"]["bytes_written"] += sum(w.size for w in result)

    def count_events(self, matched: int) -> None:
        self.counts["schedule"]["events_matched"] += matched

    # results ---------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = defaultdict(float)
        for span in self.spans:
            if span[5] >= 0:
                child[span[5]] += span[4] - span[3]
        out = defaultdict(float)
        for sid, layer, _, start, end, _, _ in self.spans:
            out[layer] += (end - start) - child[sid]
        return out

    def layer_metrics(self, requests: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, as totals per completed request."""
        selft = self.self_times()
        per = 1.0 / max(requests, 1)
        c = self.counts

        def rate(work: float, seconds: float) -> float:
            return work / seconds if seconds > 0 else 0.0

        m: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (selft[layer] * per, "s")
        w = c["wigner"]
        m["wigner.grid_points"] = (w["grid_points"] * per, "count")
        m["wigner.recurrence_steps"] = (w["recurrence_steps"] * per, "count")
        m["wigner.useful_step_ratio"] = (rate(w["useful_steps"], w["recurrence_steps"]), "ratio")
        m["wigner.steps_per_s"] = (rate(w["recurrence_steps"], selft["wigner"]), "1/s")
        e = c["evolution"]
        m["evolution.amplitude_updates"] = (e["amplitude_updates"] * per, "count")
        m["evolution.updates_per_s"] = (rate(e["amplitude_updates"], selft["evolution"]), "1/s")
        mo = c["moments"]
        m["moments.ladder_row_applications"] = (mo["ladder_row_applications"] * per, "count")
        m["moments.rows_per_s"] = (rate(mo["ladder_row_applications"], selft["moments"]), "1/s")
        en = c["entropy"]
        m["entropy.projection_gflop"] = (en["projection_gflop"] * per, "Gflop")
        m["entropy.gflop_per_s"] = (rate(en["projection_gflop"], selft["entropy"]), "Gflop/s")
        m["entropy.basis_table_mb"] = (en["basis_table_mb"], "MB")
        cl = c["cli"]
        m["cli.bytes_written"] = (cl["bytes_written"] * per, "count")
        m["cli.mb_per_s"] = (rate(cl["bytes_written"] / 1e6, selft["cli"]), "MB/s")
        m["states.calls"] = (c["states"]["calls"] * per, "count")
        m["schedule.events_matched"] = (c["schedule"]["events_matched"] * per, "count")
        for layer in LAYERS:
            m[f"{layer}.failed"] = (float(self.failed[layer]), "count")
        m["trace.spans_per_request"] = (len(self.spans) * per, "count")
        return {k: (v if math.isfinite(v) else 0.0, u) for k, (v, u) in m.items()}

    def dump(self, path: Path) -> None:
        """Write the spans, oldest first, as JSON records."""
        keys = ("id", "layer", "function", "start", "end", "parent", "request")
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)
