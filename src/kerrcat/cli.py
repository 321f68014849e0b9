"""Command-line driver: reproduce the study figures, validate, run custom configs.

Subcommands:
  figure <name>|all   write the data behind a named figure (fig1..fig11)
  validate            run the cross-module invariant checks, exit nonzero on failure
  custom <config>     run an arbitrary experiment described by a flat JSON config

Each figure is one row of the FIGURES table, a list of outputs (Wigner portrait,
Renyi-sum or moment series); `figure` and `custom` write every output through
the same writer.  `custom` takes only --out-dir on the command line: its basis
size and sample count are the config keys n_max and t_points.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
import traceback
from dataclasses import dataclass, field, fields
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .evolution import (
    KerrParams,
    TimeGrid,
    analytic_state_at,
    evolve,
)
from .entropy import (
    DEFAULT_GRID_PAD,
    RenyiPair,
    default_grid_for,
    entropy_series,
    momentum_density,
    oscillator_basis,
    position_density,
    renyi_bound,
    renyi_entropy,
    renyi_uncertainty_sum,
)
from .moments import (
    a_power_oracle,
    a_power_superposition,
    ladder_expectation_coherent,
    ladder_moment_oracle,
    moment_scale,
    moment_series,
    p_moment_oracle,
    x2_even_cat,
    x3_three_cat,
    x_moment_oracle,
)
from .schedule import detect_bursts, match_report, visible_burst_times
from .states import (
    FockState,
    SuperpositionSpec,
    TruncationError,
    coherent_state,
    fidelity,
    superposed_state,
    truncation_dim,
)
from .textfmt import SLOT, edge_values, series_table
from .wigner import PhaseSpaceGrid, count_lobes, default_grid, wigner_field


# JSON type of each ExperimentConfig field (a list holds numbers); a field whose
# default is None may also be null
_FIELD_TYPES = {
    "l": int, "h": int, "nu": float, "theta": float, "chi": float, "t_start": float,
    "t_stop": float, "t_points": int, "moment_observable": str, "moment_powers": list,
    "entropy_zeta": float, "entropy_eta": float, "wigner_times": list,
    "wigner_points": int, "n_max": int, "out_dir": str,
}


def _has_type(value, kind) -> bool:
    """Real numbers must be finite as floats: JSON reads 1e400 as inf and accepts NaN."""
    if kind is list:
        return isinstance(value, list) and all(_has_type(v, float) for v in value)
    if kind is float:  # the bound also fails NaN and integers too large for a float
        return _has_type(value, numbers.Real) and abs(value) <= sys.float_info.max
    if kind is int:  # numpy takes integers only up to int64
        return isinstance(value, int) and not isinstance(value, bool) and -2**63 <= value < 2**63
    return isinstance(value, kind) and not isinstance(value, bool)  # true is not a number


def _kind_name(kind) -> str:
    return {float: "a finite number", list: "a list of finite numbers",
            int: "an integer within int64"}.get(kind, kind.__name__)


def _time_label(frac: float) -> str:
    return f"{frac:g}".replace(".", "p")


def _require_distinct(name: str, entries: list, label) -> None:
    """Entries of a list field must name different output files."""
    seen = {}
    for entry in entries:
        key = label(entry)
        if key in seen:
            raise ValueError(f"field {name!r}: {seen[key]!r} and {entry!r} would write the "
                             f"same output file ({key})")
        seen[key] = entry


@dataclass
class ExperimentConfig:
    """Flat key-value experiment description (JSON on disk)."""

    l: int = 1
    h: int = 0
    nu: float = 20.0
    theta: float = math.pi / 4
    chi: float = 1.0
    t_start: float = 0.0
    t_stop: float = 1.0
    t_points: int = 2001
    moment_observable: str = "x"
    moment_powers: list = field(default_factory=list)
    entropy_zeta: float | None = None
    entropy_eta: float | None = None
    wigner_times: list = field(default_factory=list)
    wigner_points: int = 401
    n_max: int | None = None
    out_dir: str = "out"

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: config must be a flat JSON object")
        known = set(cls.__dataclass_fields__)
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
        cfg = cls(**raw)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        for f in fields(self):
            kind, value = _FIELD_TYPES[f.name], getattr(self, f.name)
            if kind is int and isinstance(value, float) and value.is_integer():
                value = int(value)  # JSON 2.0 names the integer 2
                setattr(self, f.name, value)
            if not (_has_type(value, kind) or value is None and f.default is None):
                raise ValueError(f"field {f.name!r}: expected {_kind_name(kind)}, got {value!r}")
        try:
            self.spec()
        except ValueError as exc:  # SuperpositionSpec's messages begin with the field's name
            name, _, rule = str(exc).partition(" ")
            raise ValueError(f"field {name!r}: {rule}") from None
        if self.chi <= 0:
            raise ValueError("field 'chi': must be positive")
        if not 0 <= self.t_start < self.t_stop <= 1:
            raise ValueError("fields 't_start'/'t_stop': need 0 <= start < stop <= 1")
        if self.t_points < 2:
            raise ValueError("field 't_points': need at least 2")
        if self.wigner_points < 2:
            raise ValueError("field 'wigner_points': need at least 2")
        if self.n_max is not None and self.n_max < 0:
            raise ValueError(f"field 'n_max': must be nonnegative, got {self.n_max}")
        if self.moment_observable not in ("x", "p"):
            raise ValueError("field 'moment_observable': must be 'x' or 'p'")
        for k in self.moment_powers:
            if int(k) != k or k < 1:
                raise ValueError("field 'moment_powers': entries must be positive integers")
        _require_distinct("moment_powers", self.moment_powers,
                          lambda k: f"{self.moment_observable}{int(k)}")
        if (self.entropy_zeta is None) != (self.entropy_eta is None):
            raise ValueError("fields 'entropy_zeta'/'entropy_eta': set both or neither")
        if self.entropy_zeta is not None:
            try:
                RenyiPair(self.entropy_zeta, self.entropy_eta)
            except ValueError as exc:
                raise ValueError(f"fields 'entropy_zeta'/'entropy_eta': {exc}") from None
        for t in self.wigner_times:
            if not 0 <= t <= 1:
                raise ValueError("field 'wigner_times': entries must lie in [0, 1]")
        _require_distinct("wigner_times", self.wigner_times, _time_label)
        if not self.moment_powers and self.entropy_zeta is None and not self.wigner_times:
            raise ValueError("empty observable list: request moments, entropy, or wigner data")

    def spec(self) -> SuperpositionSpec:
        return SuperpositionSpec(self.l, self.h, self.nu, self.theta)


# characters encoded per write: the slice and its bytes are the only copies of
# the text, about 1 MB together, where encoding all of a 9.5 MB portrait CSV at
# once would add 9.5 MB
_WRITE_SLICE = 1 << 19


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        for lo in range(0, len(text), _WRITE_SLICE):
            out.write(text[lo:lo + _WRITE_SLICE])
    print(f"wrote {path}")


# samples per output kind (per axis for a portrait); moment series take 2001
_DEFAULT_POINTS = {"wigner": 401, "renyi": 1001}
_STUDY_PAIR = RenyiPair(2 / 3, 2.0)

# name -> (description, [(file stem, l, nu, kind, time)]); kind is "wigner" (portrait
# at t = time T_rev), "renyi" or "x<m>" (series on [0, time] T_rev); h = 0 throughout
FIGURES = {
    "fig1": ("Wigner portrait, coherent nu=20 at t = T_rev/4 (four-lobe superposition)",
             [("fig1_wigner_coherent_quarter", 1, 20.0, "wigner", 0.25)]),
    "fig2": ("<x^4> series, coherent nu=100, t/T_rev in [0,1]",
             [("fig2_x4_coherent_nu100", 1, 100.0, "x4", 1.0)]),
    "fig3": ("Renyi sum (2/3, 2), coherent nu=35, [0, 1/2]",
             [("fig3_renyi_coherent_nu35", 1, 35.0, "renyi", 0.5)]),
    "fig4": ("Wigner portraits, 2-cat nu=20 at t = 0 and T_rev/4",
             [("fig4a_wigner_cat2_t0", 2, 20.0, "wigner", 0.0),
              ("fig4b_wigner_cat2_quarter", 2, 20.0, "wigner", 0.25)]),
    "fig5": ("Wigner portrait, 2-cat nu=20 at t = T_rev/8",
             [("fig5_wigner_cat2_eighth", 2, 20.0, "wigner", 0.125)]),
    "fig6": ("<x^2> series, 2-cat nu=100, [0,1]",
             [("fig6_x2_cat2_nu100", 2, 100.0, "x2", 1.0)]),
    "fig7": ("<x^4> [0,1] and <x^6> [0,1/2] series plus Renyi sum nu=30, 2-cat",
             [("fig7a_x4_cat2_nu100", 2, 100.0, "x4", 1.0),
              ("fig7b_x6_cat2_nu100", 2, 100.0, "x6", 0.5),
              ("fig7c_renyi_cat2_nu30", 2, 30.0, "renyi", 0.5)]),
    "fig8": ("Wigner portraits, 3-cat nu=20 at t = 0 and T_rev/9",
             [("fig8a_wigner_cat3_t0", 3, 20.0, "wigner", 0.0),
              ("fig8b_wigner_cat3_ninth", 3, 20.0, "wigner", 1 / 9)]),
    "fig9": ("<x^3> series, 3-cat nu=100, [0,1]; Wigner portrait 3-cat nu=20 at T_rev/18",
             [("fig9_x3_cat3_nu100", 3, 100.0, "x3", 1.0),
              ("fig9_wigner_cat3_eighteenth", 3, 20.0, "wigner", 1 / 18)]),
    "fig10": ("Renyi sum, 3-cat nu=30, [0,1/2]; companion <x^6> and <x^9> series [0,1/2]",
              [("fig10_renyi_cat3_nu30", 3, 30.0, "renyi", 0.5),
               ("fig10b_x6_cat3_nu100", 3, 100.0, "x6", 0.5),
               ("fig10c_x9_cat3_nu100", 3, 100.0, "x9", 0.5)]),
    "fig11": ("<x^8> series, 4-cat nu=100, [0, 1/2]",
              [("fig11_x8_cat4_nu100", 4, 100.0, "x8", 0.5)]),
}


def _write_output(out: Path, stem: str, spec: SuperpositionSpec, kind: str, time: float,
                  chi: float, points: int, n_max: int | None, start: float = 0.0,
                  pair: RenyiPair = _STUDY_PAIR) -> None:
    """Write one output: a Wigner portrait at t = time T_rev (`stem`.csv and .dat),
    or a Renyi-sum or <o^m> series ("renyi", "x4", "p2", ...) on [start, time] T_rev."""
    params = KerrParams(chi)
    if kind == "wigner":
        state = superposed_state(spec, n_max)
        moved = evolve(state, params, time * params.t_rev)
        fld = wigner_field(moved, default_grid(moved, points))
        header = (
            f"# l={spec.l} h={spec.h} nu={spec.nu} theta={spec.theta} chi={chi}"
            f" t_over_Trev={time} n_max={state.n_max} grid={points}x{points}\n"
        )
        _write(out / f"{stem}.csv", header + fld.to_csv())
        _write(out / f"{stem}.dat", fld.to_gnuplot_matrix())
        return
    grid = TimeGrid.uniform(points, start, time)
    if kind == "renyi":
        series = entropy_series(spec, params, grid, pair, n_max)
    else:
        series = moment_series(spec, kind[0], int(kind[1:]), params, grid, n_max)
    _write(out / f"{stem}.csv", series.to_csv())


def run_figure(name: str, out_dir: str | Path = "out", n_max: int | None = None,
               grid_points: int | None = None) -> None:
    """Write the data files behind one named figure with its study parameters."""
    if name not in FIGURES:
        raise KeyError(f"unknown figure {name!r}; choose from {sorted(FIGURES)} or 'all'")
    description, outputs = FIGURES[name]
    print(f"{name}: {description}")
    for stem, l, nu, kind, time in outputs:
        points = grid_points if grid_points is not None else _DEFAULT_POINTS.get(kind, 2001)
        _write_output(Path(out_dir), stem, SuperpositionSpec(l, 0, nu), kind, time, 1.0,
                      points, n_max)


def run_custom(config: ExperimentConfig) -> None:
    config.validate()
    out = Path(config.out_dir)
    spec = config.spec()
    tag = f"custom_l{config.l}h{config.h}_nu{config.nu:g}"
    kinds = [f"{config.moment_observable}{int(power)}" for power in config.moment_powers]
    pair = _STUDY_PAIR
    if config.entropy_zeta is not None:
        kinds.append("renyi")
        pair = RenyiPair(config.entropy_zeta, config.entropy_eta)
    for kind in kinds:
        _write_output(out, f"{tag}_{kind}", spec, kind, config.t_stop, config.chi,
                      config.t_points, config.n_max, config.t_start, pair)
    for frac in config.wigner_times:
        _write_output(out, f"{tag}_wigner_t{_time_label(frac)}", spec, "wigner", float(frac),
                      config.chi, config.wigner_points, config.n_max)


# validation suite -----------------------------------------------------------

def _check(name, fn):
    """Run one check; a failed assertion or any other error is its FAIL, and the
    suite goes on to the next check."""
    try:
        detail = fn()
        return (name, True, detail or "")
    except AssertionError as exc:
        return (name, False, str(exc))
    except Exception as exc:
        traceback.print_exc()
        return (name, False, f"{type(exc).__name__}: {exc}")


def _converged_renyi_sums(state: FockState, pairs: list[RenyiPair],
                          step: float = 2.5e-4) -> list[float]:
    """R_rho(zeta) + R_gamma(eta) for each pair by the plain trapezoid on every
    point of a fine grid one unit wider than `default_grid_for`, built 4096
    points at a time; the grid's ends are below 1e-30 and carry no half weights."""
    x = default_grid_for(state, step, DEFAULT_GRID_PAD + 1.0)
    c = state.amplitudes
    turned = c * np.array([1, -1j, -1, 1j])[np.arange(c.size) % 4]
    sums = np.zeros((len(pairs), 2))
    for lo in range(0, x.size, 4096):
        table = oscillator_basis(state.n_max, x[lo:lo + 4096])
        rho = np.square(c.real @ table) + np.square(c.imag @ table)
        gamma = np.square(turned.real @ table) + np.square(turned.imag @ table)
        sums += [[np.sum(rho**pair.zeta), np.sum(gamma**pair.eta)] for pair in pairs]
    return [math.log(step * a) / (1.0 - pair.zeta) + math.log(step * b) / (1.0 - pair.eta)
            for (a, b), pair in zip(sums, pairs)]


def _validate_checks(rng: np.random.Generator) -> list[tuple[str, bool, str]]:
    params = KerrParams(1.0)
    t_rev = params.t_rev
    checks = []

    def revivals():
        worst = 1.0
        for l, nu in [(1, 20.0), (2, 20.0), (3, 20.0), (4, 20.0), (1, 100.0)]:
            s = superposed_state(SuperpositionSpec(l, 0, nu))
            worst = min(worst, fidelity(s, evolve(s, params, t_rev)))
        assert worst >= 1 - 1e-12, f"revival fidelity {worst}"
        return f"min fidelity {worst:.17g}"

    checks.append(_check("exact revival at T_rev", revivals))

    def analytic():
        # every reduced j/q in [0, 1] with q <= 32, for the 1- to 4-cats
        fracs = sorted({Fraction(j, q) for q in range(1, 33) for j in range(q + 1)})
        n_max = truncation_dim(20.0)
        worst = 1.0
        for l in range(1, 5):
            spec = SuperpositionSpec(l, 0, 20.0)
            initial = superposed_state(spec, n_max)
            for frac in fracs:
                got = evolve(initial, params, float(frac) * t_rev)
                worst = min(worst, fidelity(got, analytic_state_at(spec, frac, n_max)))
        assert worst >= 1 - 1e-10, f"analytic-state fidelity {worst}"
        return f"min fidelity over {4 * len(fracs)} states {worst:.17g}"

    checks.append(_check("fractional-revival superpositions", analytic))

    def closed_forms():
        worst = 0.0
        for _ in range(20):
            nu = float(rng.uniform(0.5, 100.0))
            t = float(rng.uniform(0.0, t_rev))
            n_max = truncation_dim(nu) + 12
            alpha = math.sqrt(nu) * np.exp(1j * math.pi / 4)
            cs = evolve(coherent_state(nu, math.pi / 4, n_max), params, t)
            r, s = int(rng.integers(0, 3)), int(rng.integers(0, 5))
            err = abs(ladder_expectation_coherent(alpha, r, s, 1.0, t)
                      - ladder_moment_oracle(cs, r, s))
            worst = max(worst, err / max(abs(ladder_moment_oracle(cs, r, s)),
                                         moment_scale(nu, r, s)))
            k = int(rng.integers(1, 4))
            c2 = evolve(superposed_state(SuperpositionSpec(2, 0, nu), n_max), params, t)
            err = abs(a_power_superposition(2, nu, math.pi / 4, 1.0, t, k) - a_power_oracle(c2, 2 * k))
            worst = max(worst, err / max(abs(a_power_oracle(c2, 2 * k)), moment_scale(nu, 0, 2 * k)))
            worst = max(worst, abs(x2_even_cat(nu, 1.0, t) - x_moment_oracle(c2, 2))
                        / abs(x_moment_oracle(c2, 2)))
            c3 = evolve(superposed_state(SuperpositionSpec(3, 0, nu), n_max), params, t)
            err = abs(a_power_superposition(3, nu, math.pi / 4, 1.0, t, k) - a_power_oracle(c3, 3 * k))
            worst = max(worst, err / max(abs(a_power_oracle(c3, 3 * k)), moment_scale(nu, 0, 3 * k)))
            err = abs(x3_three_cat(nu, 1.0, t) - x_moment_oracle(c3, 3))
            worst = max(worst, err / max(abs(x_moment_oracle(c3, 3)), moment_scale(nu, 0, 3)))
        assert worst < 1e-9, f"closed-form vs oracle relative error {worst}"
        return f"worst scaled error {worst:.3e}"

    checks.append(_check("closed forms against matrix oracle", closed_forms))

    def band_series():
        worst = 0.0
        for l, h, observable, power in [(1, 0, "x", 9), (1, 0, "p", 4), (2, 0, "x", 8),
                                        (2, 0, "p", 2), (3, 0, "x", 3), (3, 0, "p", 6),
                                        (4, 0, "x", 4), (4, 0, "p", 8), (3, 1, "x", 5)]:
            spec = SuperpositionSpec(l, h, 40.0)
            fracs = np.unique(np.concatenate([rng.uniform(0.0, 1.0, 4),
                                              [1 / (2 * l * l), 1 / (l * l), 1.0]]))
            series = moment_series(spec, observable, power, params, TimeGrid(fracs))
            oracle = x_moment_oracle if observable == "x" else p_moment_oracle
            state = superposed_state(spec, series.meta["n_max"])
            want = [oracle(evolve(state, params, f * t_rev), power) for f in fracs]
            err = np.max(np.abs(series.values - want)) / (2 * spec.nu + 1) ** (power / 2)
            worst = max(worst, err)
        assert worst < 1e-9, f"band series vs oracle scaled error {worst}"
        return f"worst scaled error {worst:.3e}"

    checks.append(_check("moment series against matrix oracle", band_series))

    def entropy_sums():
        worst = 0.0
        # (2, 0) and (2, 1) have one parity (even, odd) and fold x < 0 onto x >= 0
        for (l, h), pair in zip([(1, 0), (2, 0), (2, 1), (3, 0), (3, 1)],
                                [RenyiPair(2 / 3, 2.0), RenyiPair(1.0, 1.0), RenyiPair(0.8, 4 / 3),
                                 RenyiPair(0.6, 3.0), RenyiPair(0.75, 1.5)]):
            spec = SuperpositionSpec(l, h, 40.0)
            # 64 samples: four blocks of 16 rows, two for each of two workers
            fracs = np.unique(np.concatenate([rng.uniform(0.0, 1.0, 61),
                                              [1 / (2 * l * l), 1 / (l * l), 1.0]]))
            series = entropy_series(spec, params, TimeGrid(fracs), pair)
            state = superposed_state(spec, series.meta["n_max"])
            want = [renyi_uncertainty_sum(evolve(state, params, f * t_rev), pair) for f in fracs]
            worst = max(worst, float(np.max(np.abs(series.values - want))))
        assert worst < 1e-10, f"entropy series vs per-state sums error {worst}"
        return f"worst error {worst:.3e}"

    checks.append(_check("entropy series against per-state sums", entropy_sums))

    def quadrature_grids():
        # an integer order's sub-grid (step about pi / (o X)) against every point
        worst = 0.0
        for l in (1, 2, 3, 4):
            s = evolve(superposed_state(SuperpositionSpec(l, 0, 20.0)), params, 0.37 * t_rev)
            for pair in (RenyiPair(2 / 3, 2.0), RenyiPair(0.6, 3.0), RenyiPair(2.0, 2 / 3)):
                full = (renyi_entropy(position_density(s), pair.zeta)
                        + renyi_entropy(momentum_density(s), pair.eta))
                worst = max(worst, abs(renyi_uncertainty_sum(s, pair) - full))
        assert worst < 1e-12, f"integer-order sub-grid vs full grid {worst}"
        # composite Simpson on the same grid missed this sum by 1.40e-5
        spec, pair = SuperpositionSpec(3, 0, 30.0, math.pi / 4), RenyiPair(0.6, 3.0)
        series = entropy_series(spec, params, TimeGrid(np.array([0.25, 0.5])), pair)
        state = evolve(superposed_state(spec, series.meta["n_max"]), params, t_rev / 4)
        err = abs(series.values[0] - _converged_renyi_sums(state, [pair])[0])
        assert err < 1e-5, f"3-cat, nu=30, T_rev/4, zeta=0.6 off the converged sum by {err}"
        return f"sub-grid error {worst:.1e}, 3-cat T_rev/4 zeta=0.6 off by {err:.2e}"

    checks.append(_check("Renyi quadrature grids", quadrature_grids))

    def parity():
        spec = SuperpositionSpec(2, 0, 100.0)
        grid = TimeGrid.uniform(201)
        worst = max(np.max(np.abs(moment_series(spec, "x", p, params, grid).values))
                    for p in (1, 3))
        assert worst < 1e-10, f"odd moment leak {worst}"
        return f"max |<x^odd>| = {worst:.3e}"

    checks.append(_check("parity selection for the 2-cat", parity))

    def schedule():
        spec = SuperpositionSpec(1, 0, 100.0)
        series = moment_series(spec, "x", 4, params, TimeGrid.uniform(2001))
        rep = match_report(detect_bursts(series), visible_burst_times(1, 4), 1e-3)
        assert rep.complete, f"misses {rep.misses}, spurious {rep.spurious}"
        return f"{len(rep.matched)} bursts matched"

    checks.append(_check("x^4 burst schedule, coherent nu=100", schedule))

    def entropy_bound():
        pair = RenyiPair(2 / 3, 2.0)
        bound = renyi_bound(pair)
        vac = FockState(np.eye(32, dtype=complex)[0])
        sat = renyi_uncertainty_sum(vac, pair)
        assert abs(sat - bound) < 1e-6, f"vacuum saturation defect {abs(sat - bound)}"
        s = evolve(superposed_state(SuperpositionSpec(2, 0, 30.0)), params, 0.37 * t_rev)
        val = renyi_uncertainty_sum(s, pair)
        assert val >= bound - 1e-6, f"bound violated: {val} < {bound}"
        return f"vacuum defect {abs(sat - bound):.2e}"

    checks.append(_check("Renyi uncertainty bound", entropy_bound))

    def wigner_quick():
        vac = FockState(np.eye(24, dtype=complex)[0])
        fld = wigner_field(vac, PhaseSpaceGrid.square(6.0, 201))
        x, p = np.meshgrid(fld.grid.xs(), fld.grid.ps(), indexing="ij")
        err = np.max(np.abs(fld.values - np.exp(-x * x - p * p) / math.pi))
        assert err < 1e-10, f"vacuum field off exp(-x^2-p^2)/pi by {err}"
        assert abs(fld.integral() - 1) < 1e-3, f"normalization {fld.integral()}"
        state = evolve(coherent_state(20.0), params, t_rev / 4)
        lobes = count_lobes(wigner_field(state, default_grid(state, 201)))
        assert lobes == 4, f"expected 4 lobes, found {lobes}"
        return f"vacuum field error {err:.1e}, 4-lobe portrait"

    checks.append(_check("Wigner field basics", wigner_quick))

    def writer():
        edge = edge_values()
        want = "".join(f"{SLOT % v},{SLOT % v}\n" for v in edge.tolist())
        assert series_table(edge, edge) == want, "formatter differs from '%.17g' on the edge vector"

        def same(text_rows, want):  # float() of every number, bit for bit
            got = np.array([[float(s) for s in row] for row in text_rows])
            return got.shape == want.shape and np.array_equal(got.view(np.uint64),
                                                              want.view(np.uint64))

        state = evolve(superposed_state(SuperpositionSpec(3, 0, 20.0)), params, t_rev / 18)
        fld = wigner_field(state, default_grid(state, 101))
        xs, ps, w = fld.grid.xs(), fld.grid.ps(), fld.values
        x, p = np.meshgrid(xs, ps, indexing="ij")
        csv = [line.split(",") for line in fld.to_csv().splitlines()[1:]]
        assert same(csv, np.stack([x.ravel(), p.ravel(), w.ravel()], axis=1)), "portrait CSV"
        matrix = [line.split() for line in fld.to_gnuplot_matrix().splitlines()]
        assert same(matrix[:1], np.concatenate([[xs.size], xs])[None]), "matrix axis row"
        assert same(matrix[1:], np.column_stack([ps, w.T])), "matrix rows"
        series = moment_series(SuperpositionSpec(2, 0, 40.0), "x", 4, params, TimeGrid.uniform(501))
        lines = series.to_csv().splitlines()
        rows = [line.split(",") for line in lines[lines.index("t_over_Trev,value") + 1:]]
        assert same(rows, np.column_stack([series.grid.fractions, series.values])), "series CSV"
        count = 3 * w.size + (xs.size + 1) + w.size + ps.size + 2 * len(rows)
        return f"{count} numbers read back exactly; '%.17g' on {edge.size} edge values"

    checks.append(_check("writer round trip", writer))

    def truncation_guard():
        try:
            coherent_state(100.0, math.pi / 4, n_max=50)
        except TruncationError:
            return "undersized basis rejected"
        raise AssertionError("n_max = nu/2 accepted without complaint")

    checks.append(_check("truncation guard", truncation_guard))

    def mutation_guard():
        nu, n_max = 20.0, truncation_dim(20.0)
        spec = SuperpositionSpec(1, 0, nu)
        base = superposed_state(spec, n_max)
        n = np.arange(n_max + 1)
        # wrong spectrum n^2 must break the exact revival
        bad_rev = FockState(base.amplitudes * np.exp(-1j * np.pi * n**2))
        assert fidelity(base, bad_rev) < 0.9, "n^2 spectrum not caught by revival check"
        # conjugated propagator must break the quarter-revival superposition
        t = t_rev / 4
        flipped = FockState(base.amplitudes * np.exp(+1j * n * (n - 1.0) * t))
        target = analytic_state_at(spec, Fraction(1, 4), n_max)
        assert fidelity(flipped, target) < 0.9, "sign flip not caught by analytic check"
        return "sign flip and n^2 mutations detected"

    checks.append(_check("mutation sensitivity", mutation_guard))
    return checks


def run_validate(seed: int = 1234) -> int:
    """Run the invariant suite; returns a process exit code."""
    checks = _validate_checks(np.random.default_rng(seed))
    failures = 0
    for name, ok, detail in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
        failures += 0 if ok else 1
    print(f"{len(checks) - failures}/{len(checks)} checks passed")
    return 0 if failures == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="kerrcat",
        description="Kerr-oscillator dynamics of multi-component cat states",
    )
    parser.add_argument("--version", action="version", version=f"kerrcat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figure", help="write the data files behind a named figure")
    p_fig.add_argument("name", help="fig1..fig11, or 'all'")
    p_fig.add_argument("--out-dir", default="out")
    p_fig.add_argument("--n-max", type=int, default=None)
    p_fig.add_argument("--grid-points", type=int, default=None)

    p_val = sub.add_parser("validate", help="run the invariant suite")
    p_val.add_argument("--seed", type=int, default=1234)

    p_cus = sub.add_parser("custom", help="run an experiment from a JSON config")
    p_cus.add_argument("config")
    p_cus.add_argument("--out-dir", default=None)

    args = parser.parse_args(argv)
    try:
        if args.command == "figure":
            if args.grid_points is not None and args.grid_points < 2:
                raise ValueError(f"--grid-points must be at least 2, got {args.grid_points}")
            if args.n_max is not None and args.n_max < 0:
                raise ValueError(f"--n-max must be nonnegative, got {args.n_max}")
            names = sorted(FIGURES) if args.name == "all" else [args.name]
            for name in names:
                run_figure(name, args.out_dir, args.n_max, args.grid_points)
            return 0
        if args.command == "validate":
            return run_validate(args.seed)
        if args.command == "custom":
            cfg = ExperimentConfig.from_file(args.config)
            if args.out_dir:
                cfg.out_dir = args.out_dir
            run_custom(cfg)
            return 0
    except (KeyError, ValueError, TruncationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
