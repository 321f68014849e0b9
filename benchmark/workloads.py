"""Experiment requests of the three workloads, how to run them, and their checks.

A request goes through the public functions in the order `kerrcat figure` and
`kerrcat custom` call them: state construction, evolution, one analysis
(moments, entropy or Wigner), one detector (bursts, minima or lobes) and the
CSV writers.  Every call goes through a module attribute so that a traced run
can swap in its wrappers.

Each workload is a fixed round of request slots.  The seed chooses, per slot,
among inputs of equal cost (a symmetric variant of the portrait, x or p, the
second Renyi pair, the phase-space points to check) and the order of the
round; it never changes how much work a round holds.  Runs attempt whole
rounds, so the share of failed requests is the same in every run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import reference as ref

THETA = math.pi / 4  # the phase of alpha in every study of the paper
SERIES_NU = 100.0
ENTROPY_POINTS = 1001
ENTROPY_STOP = Fraction(1, 2)
# the program's composite Simpson at its default 0.005 grid step sits up to
# 2e-5 away from a converged quadrature of the same densities
ENTROPY_TOL = 5e-5
BOUND_TOL = 1e-9
WIGNER_TOL = 1e-9
MOMENT_RTOL = 1e-9
INTEGRAL_TOL = 1e-3


@dataclass(frozen=True)
class Portrait:
    l: int
    nu: float
    points: int
    frac: Fraction
    theta: float
    check_seed: int
    kind: str = "portrait"

    @property
    def name(self) -> str:
        return f"portrait_l{self.l}_nu{self.nu:g}_{self.points}_t{self.frac.numerator}-{self.frac.denominator}"


@dataclass(frozen=True)
class Series:
    l: int
    observable: str
    power: int
    stop: Fraction
    samples: int
    known_fault: bool = False
    kind: str = "series"

    @property
    def name(self) -> str:
        return f"series_l{self.l}_{self.observable}{self.power}_to{float(self.stop):g}_{self.samples}"


@dataclass(frozen=True)
class Entropy:
    l: int
    nu: float
    zeta: float
    eta: float
    kind: str = "entropy"

    @property
    def name(self) -> str:
        return f"entropy_l{self.l}_nu{self.nu:g}_z{self.zeta:.4g}"


# round make-up ---------------------------------------------------------------

# (l, nu, grid points, time as a fraction of T_rev): t = 0, rotations j/l^2 and
# k-sub-packet times j/(l^2 k).  Nine cheap portraits and four dear ones, so
# that the median latency falls inside the cheap group, not at its edge.
PORTRAIT_SLOTS = [
    (2, 15.0, 201, Fraction(0)),
    (2, 20.0, 201, Fraction(1, 4)),
    (2, 20.0, 201, Fraction(1, 8)),
    (2, 15.0, 201, Fraction(1, 12)),
    (3, 15.0, 201, Fraction(0)),
    (3, 15.0, 201, Fraction(1, 9)),
    (3, 20.0, 201, Fraction(1, 18)),
    (4, 30.0, 201, Fraction(1, 16)),
    (4, 30.0, 201, Fraction(1, 32)),
    (1, 12.0, 201, Fraction(1, 3)),
    (1, 20.0, 201, Fraction(1, 4)),
    (3, 20.0, 401, Fraction(1, 18)),
    (4, 30.0, 401, Fraction(1, 32)),
]
# The seed picks among variants that the square grid maps onto itself: alpha
# turned by a multiple of pi/2, and t -> T_rev - t, which mirrors the portrait
# in the line through alpha.  Every variant evaluates and writes the same set
# of values, so the work does not depend on the seed.
PORTRAIT_PHASES = [THETA + k * math.pi / 2 for k in range(4)]

# (l, power, window end, samples); 1440 and 2880 intervals put every j/l^2 and
# j/(2 l^2) time of l <= 4 on a sample
SERIES_SLOTS = [
    (1, 1, Fraction(1), 1441), (1, 2, Fraction(1), 1441), (1, 3, Fraction(1), 2881),
    (1, 4, Fraction(1), 2881), (1, 6, Fraction(1, 2), 1441),
    (2, 2, Fraction(1), 1441), (2, 4, Fraction(1), 2881), (2, 6, Fraction(1, 2), 1441),
    (2, 8, Fraction(1, 2), 2881),
    (3, 3, Fraction(1), 2881), (3, 6, Fraction(1, 2), 1441), (3, 9, Fraction(1, 2), 1441),
    (4, 4, Fraction(1), 1441), (4, 8, Fraction(1, 2), 2881),
]
# constant moments: no damping branch reaches them, so the schedule is empty,
# yet detect_bursts reports bursts in their rounding noise.  Fixed inputs.
FLAT_SERIES = [
    Series(3, "x", 2, Fraction(1), 1441, known_fault=True),
    Series(3, "x", 4, Fraction(1), 1441, known_fault=True),
    Series(4, "x", 2, Fraction(1), 1441, known_fault=True),
]

# (l, nu, True for the (2/3, 2) pair, False for a seed-chosen second pair)
ENTROPY_SLOTS = [
    (1, 20.0, True), (1, 35.0, False), (2, 25.0, True), (2, 30.0, False),
    (2, 35.0, False), (3, 20.0, True), (3, 30.0, False),
]
# none of the second pairs has an order of exactly 2, which numpy squares
# faster than a general power; every choice costs the same
SECOND_ZETAS = [0.6, 0.75, 0.8, 0.9]

WORKLOADS = ("portraits", "series", "entropy")


def _pair(zeta: float) -> tuple[float, float]:
    return zeta, zeta / (2.0 * zeta - 1.0)


def make_round(workload: str, rng: np.random.Generator) -> list:
    """One round of requests; the same make-up for every seed."""
    if workload == "portraits":
        reqs = [Portrait(l, nu, pts, 1 - frac if frac and rng.integers(2) else frac,
                         PORTRAIT_PHASES[rng.integers(len(PORTRAIT_PHASES))], int(rng.integers(2**31)))
                for l, nu, pts, frac in PORTRAIT_SLOTS]
    elif workload == "series":
        reqs = [Series(l, "xp"[rng.integers(2)], m, stop, n) for l, m, stop, n in SERIES_SLOTS]
        reqs += FLAT_SERIES
    elif workload == "entropy":
        reqs = [Entropy(l, nu, *_pair(2 / 3 if main else SECOND_ZETAS[rng.integers(len(SECOND_ZETAS))]))
                for l, nu, main in ENTROPY_SLOTS]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    order = rng.permutation(len(reqs))
    return [reqs[i] for i in order]


def warmup_request(workload: str):
    """A small request of the workload's kind, run once before timing."""
    if workload == "portraits":
        return Portrait(2, 10.0, 101, Fraction(1, 8), THETA, 0)
    if workload == "series":
        return Series(2, "x", 4, Fraction(1), 401)
    if workload == "entropy":
        return Entropy(1, 10.0, *_pair(2 / 3))
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# running a request ---------------------------------------------------------------

@dataclass
class Written:
    path: Path
    size: int
    lines: int


def write_text(path: Path, text: str) -> Written:
    """The CLI's file output: serialised text written to disk."""
    path.write_text(text)
    return Written(path, len(text), text.count("\n"))


def write_series(out: Path, name: str, series) -> list[Written]:
    return [write_text(out / f"{name}.csv", series.to_csv())]


def write_field(out: Path, name: str, header: str, field) -> list[Written]:
    return [write_text(out / f"{name}.csv", header + field.to_csv()),
            write_text(out / f"{name}.dat", field.to_gnuplot_matrix())]


class Runner:
    """Executes requests against the kerrcat modules and writes into `out`.

    `writers` holds the file-output functions; a traced run replaces them with
    wrapped versions the same way it replaces the kerrcat functions.
    """

    def __init__(self, kc, out: Path):
        self.kc = kc
        self.out = out
        self.params = kc.evolution.KerrParams(1.0)
        self.writers = {"series": write_series, "field": write_field}

    def run(self, req) -> dict:
        return getattr(self, f"_{req.kind}")(req)

    def _portrait(self, req: Portrait) -> dict:
        kc = self.kc
        spec = kc.states.SuperpositionSpec(req.l, 0, req.nu, req.theta)
        state = kc.states.superposed_state(spec)
        moved = kc.evolution.evolve(state, self.params, float(req.frac) * self.params.t_rev)
        grid = kc.wigner.default_grid(moved, req.points)
        field = kc.wigner.wigner_field(moved, grid)
        lobes = kc.wigner.count_lobes(field)
        header = (f"# l={req.l} h=0 nu={req.nu} theta={req.theta} chi=1.0 t_over_Trev={float(req.frac)}"
                  f" n_max={state.n_max} grid={req.points}x{req.points}\n")
        files = self.writers["field"](self.out, req.name, header, field)
        return {"field": field, "lobes": lobes, "files": files}

    def _series(self, req: Series) -> dict:
        kc = self.kc
        spec = kc.states.SuperpositionSpec(req.l, 0, SERIES_NU, THETA)
        grid = kc.evolution.TimeGrid.uniform(req.samples, 0.0, float(req.stop))
        series = kc.moments.moment_series(spec, req.observable, req.power, self.params, grid)
        bursts = kc.schedule.detect_bursts(series)
        files = self.writers["series"](self.out, req.name, series)
        return {"series": series, "bursts": bursts, "files": files}

    def _entropy(self, req: Entropy) -> dict:
        kc = self.kc
        spec = kc.states.SuperpositionSpec(req.l, 0, req.nu, THETA)
        grid = kc.evolution.TimeGrid.uniform(ENTROPY_POINTS, 0.0, float(ENTROPY_STOP))
        pair = kc.entropy.RenyiPair(req.zeta, req.eta)
        series = kc.entropy.entropy_series(spec, self.params, grid, pair)
        minima = kc.schedule.detect_minima(series)
        files = self.writers["series"](self.out, req.name, series)
        return {"series": series, "minima": minima, "files": files}


# checks -------------------------------------------------------------------------

@dataclass
class Verdict:
    """Failed check messages; `schedule_only` marks failures confined to the burst schedule."""

    problems: list[str]
    schedule_only: bool = False
    events_matched: int = 0


def _check_files(files: list[Written], expected_lines: list[int]) -> list[str]:
    out = []
    for w, lines in zip(files, expected_lines):
        if not w.path.is_file() or w.path.stat().st_size != w.size:
            out.append(f"{w.path.name}: {w.size} bytes not on disk")
        if w.lines != lines:
            out.append(f"{w.path.name}: {w.lines} lines, expected {lines}")
    return out


def _reference_indices(stop: Fraction, samples: int, denominators: set[int]) -> list[tuple[int, Fraction]]:
    """Samples that sit exactly on j/q times, q in `denominators`."""
    out = []
    for i in range(samples):
        f = Fraction(i, samples - 1) * stop
        if f.denominator in denominators:
            out.append((i, f))
    return out


def check_portrait(req: Portrait, res: dict) -> Verdict:
    field = res["field"]
    problems = []
    weights, labels = ref.revival_components(req.l, req.nu, req.theta, req.frac)
    xs = np.linspace(field.grid.x_min, field.grid.x_max, field.grid.n_x)
    ps = np.linspace(field.grid.p_min, field.grid.p_max, field.grid.n_p)
    values = field.values
    if values.shape != (xs.size, ps.size):
        return Verdict([f"field shape {values.shape}"])
    # lobe centres, midpoints between pairs of lobes (fringes), random points
    cx, cp = np.sqrt(2.0) * labels.real, np.sqrt(2.0) * labels.imag
    mid_x = (cx[:, None] + cx[None, :]).ravel() / 2
    mid_p = (cp[:, None] + cp[None, :]).ravel() / 2
    rng = np.random.default_rng(req.check_seed)
    px = np.concatenate([cx, mid_x, rng.uniform(xs[0], xs[-1], 64)])
    pp = np.concatenate([cp, mid_p, rng.uniform(ps[0], ps[-1], 64)])
    ii = np.clip(np.searchsorted(xs, px), 0, xs.size - 1)
    jj = np.clip(np.searchsorted(ps, pp), 0, ps.size - 1)
    expected = ref.wigner_coherent_sum(weights, labels, xs[ii], ps[jj])
    err = np.max(np.abs(values[ii, jj] - expected))
    if err > WIGNER_TOL:
        problems.append(f"W off the coherent-sum closed form by {err:.3e}")
    peak = np.max(np.abs(values))
    if peak > 1.0 / math.pi + 1e-12:
        problems.append(f"|W| reaches {peak:.6f} > 1/pi")
    total = np.trapezoid(np.trapezoid(values, ps, axis=1), xs)
    if abs(total - 1.0) > INTEGRAL_TOL:
        problems.append(f"integral of W is {total:.6f}")
    if res["lobes"] != weights.size:
        problems.append(f"{res['lobes']} lobes counted, {weights.size} components")
    problems += _check_files(res["files"], [xs.size * ps.size + 2, ps.size + 1])
    return Verdict(problems)


def _match(detected: list[float], predicted: list[Fraction], tol: float) -> tuple[int, int, int]:
    """(matched, missed, spurious) by greedy nearest pairing within tol."""
    pairs = sorted((abs(d - float(p)), i, j) for i, d in enumerate(detected)
                   for j, p in enumerate(predicted) if abs(d - float(p)) <= tol)
    used_d, used_p = set(), set()
    for _, i, j in pairs:
        if i not in used_d and j not in used_p:
            used_d.add(i)
            used_p.add(j)
    return len(used_d), len(predicted) - len(used_p), len(detected) - len(used_d)


def check_series(req: Series, res: dict) -> Verdict:
    series = res["series"]
    values = series.values
    problems = []
    fractions = np.linspace(0.0, float(req.stop), req.samples)
    scale = (2.0 * SERIES_NU + 1.0) ** (req.power / 2.0)
    if values.shape != (req.samples,):
        return Verdict([f"series length {values.shape}"])
    if req.l == 1:
        alpha = math.sqrt(SERIES_NU) * np.exp(1j * THETA)
        expected = ref.moment_coherent_series(alpha, req.observable, req.power, fractions)
        err = np.max(np.abs(values - expected)) / scale
        if err > MOMENT_RTOL:
            problems.append(f"coherent-state moments off the textbook formula by {err:.3e} (scaled)")
        dens = {1, 2, 3, 4}
    else:
        dens = {1, req.l**2, 2 * req.l**2}
    for i, f in _reference_indices(req.stop, req.samples, dens):
        weights, labels = ref.revival_components(req.l, SERIES_NU, THETA, f)
        expected = ref.moment_coherent_sum(weights, labels, req.observable, req.power)
        err = abs(values[i] - expected) / scale
        if err > MOMENT_RTOL:
            problems.append(f"moment at t={f} off the coherent-sum value by {err:.3e} (scaled)")
    problems += _check_files(res["files"], [req.samples + 1 + len(series.meta) + 1])
    # the series must be right before its bursts are judged
    schedule_only = False
    schedule = ref.burst_schedule(req.l, req.power, req.stop)
    step = float(req.stop) / (req.samples - 1)
    matched, missed, spurious = _match(res["bursts"], schedule, 2 * step)
    if missed or spurious:
        schedule_only = not problems
        problems.append(f"bursts: {matched} matched, {missed} missed, {spurious} spurious"
                        f" against {len(schedule)} predicted")
    return Verdict(problems, schedule_only, matched)


def check_entropy(req: Entropy, res: dict) -> Verdict:
    series = res["series"]
    values = series.values
    problems = []
    if values.shape != (ENTROPY_POINTS,):
        return Verdict([f"series length {values.shape}"])
    bound = ref.renyi_bound(req.zeta, req.eta)
    low = np.min(values - bound)
    if low < -BOUND_TOL:
        problems.append(f"entropy sum {low:.3e} below the Renyi bound")
    if req.l == 1 and abs(values[0] - bound) > 1e-6:
        problems.append(f"coherent state at t=0 misses the bound by {values[0] - bound:.3e}")
    for i, f in _reference_indices(ENTROPY_STOP, ENTROPY_POINTS, {1, 4, 8}):
        weights, labels = ref.revival_components(req.l, req.nu, THETA, f)
        expected = ref.renyi_sum(weights, labels, req.zeta, req.eta)
        if abs(values[i] - expected) > ENTROPY_TOL:
            problems.append(f"entropy sum at t={f} off the closed-form densities by "
                            f"{values[i] - expected:.3e}")
    # detect_minima reports local minima (ties allowed) below the series median
    median = np.median(values)
    step = float(ENTROPY_STOP) / (ENTROPY_POINTS - 1)
    verified = 0
    for m in res["minima"]:
        i = int(round(m / step))
        if not (0 <= i < values.size and abs(i * step - m) < 1e-9):
            problems.append(f"minimum at {m} is not a sample time")
            continue
        left = values[i - 1] if i > 0 else values[1]
        right = values[i + 1] if i + 1 < values.size else values[-2]
        if values[i] >= median or values[i] > left or values[i] > right:
            problems.append(f"minimum at {m} is not a local minimum below the median")
            continue
        verified += 1
    problems += _check_files(res["files"], [ENTROPY_POINTS + 1 + len(series.meta) + 1])
    return Verdict(problems, events_matched=verified)


CHECKS = {"portrait": check_portrait, "series": check_series, "entropy": check_entropy}


def check(req, res: dict) -> Verdict:
    return CHECKS[req.kind](req, res)
