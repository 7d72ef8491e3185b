"""Interpolating dynamics between wave-like and classical transport regimes.

The state is a density/phase pair (rho, S) on a 1-D periodic grid.  The
continuum system is the continuity equation coupled to a Hamilton-Jacobi
equation whose curvature pressure term Q = -(hbar^2/2m) lap(sqrt(rho))/sqrt(rho)
enters scaled by lambda in [0, 1]: lambda = 1 is standard unitary wave
mechanics, lambda = 0 the classical pair.

Q scales as hbar^2, so lambda * Q is the curvature term of the Madelung
system with hbar_eff = sqrt(lambda) * hbar.  For lambda > 0 each step
therefore evolves the complex field psi = sqrt(rho) exp(iS/hbar_eff) by the
linear Strang split step of the Schroedinger equation with hbar_eff: no Q is
computed, the step is unconditionally norm-conserving and second order, and
at lambda = 1 it is exactly the linear split-step solver.  The field is kept
in k-space across steps with every phase built once per run, so a step
costs one FFT for free evolution and three with a potential.  Only at
lambda = 0, where hbar_eff vanishes, does the step keep the field at the
physical hbar and apply the effective potential V - Q[|psi|^2], whose Q
cancels the dispersion of the kinetic substeps.

S is the physical action at every lambda: the polar helpers and the initial
states use hbar, and only the field inside ``step`` and ``evolve`` carries
hbar_eff.

Sigma never sets hbar: ``evolve --sigma`` maps sigma to lambda at
``--hbar`` through ``lambda_from_sigma``, by default the clamp of
m sigma / hbar to [0, 1].

Every run uses one numerical configuration, fixed by the module constants:
the density floor ``RHO_FLOOR``, the time-step bound's ``STABILITY_FACTOR``,
the collapse guard's ``COLLAPSE_FRACTION`` and the visibility clamp
``VISIBILITY_FLOOR``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    STEP_BUDGET,
    DensityCollapse,
    NonMonotoneMap,
    SizeLimitExceeded,
    StabilityViolation,
)

#: Density floor: regularizes Q, and below it the phase is undefined
#: (``polar_compose``) and the collapse guard counts a cell as void.
RHO_FLOOR = 1e-14
#: Clamp used when computing fringe visibility, so sub-floor densities read flat.
VISIBILITY_FLOOR = 1e-12
#: Safety factor in the time-step bound dt <= c * dx^2 * m / hbar.
STABILITY_FACTOR = 0.2
#: Largest share of the grid that may newly fall below ``RHO_FLOOR`` in a run.
COLLAPSE_FRACTION = 0.10
#: Most grid points; one complex field of this size is 64 MiB.
GRID_POINTS_LIMIT = 2**22
#: Most bytes of density frames one run may collect.
FRAME_BYTES_LIMIT = 2**30
#: Most observable records one run may keep (about 300 bytes each).
RECORDS_LIMIT = 10**6


@dataclass(frozen=True)
class Grid:
    """Periodic 1-D grid centered on zero; n_points a power of two in [64, GRID_POINTS_LIMIT]."""

    n_points: int
    length: float

    def __post_init__(self) -> None:
        n = self.n_points
        if type(n) is not int:  # bool is an int subclass
            raise ValueError(f"n_points must be an integer, got {n!r}")
        if n > GRID_POINTS_LIMIT:
            raise SizeLimitExceeded(f"n_points {n} exceeds the limit of {GRID_POINTS_LIMIT}")
        if n < 64 or n & (n - 1):
            raise ValueError(f"n_points must be a power of two >= 64, got {n}")
        if not 0 < self.length < math.inf:
            raise ValueError(f"grid length must be finite and positive, got {self.length}")

    @property
    def dx(self) -> float:
        return self.length / self.n_points

    @property
    def x(self) -> np.ndarray:
        return (np.arange(self.n_points) - self.n_points // 2) * self.dx

    @property
    def k(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)


@dataclass(frozen=True)
class PhysicalParams:
    """Physical constants and the sampled external potential for one run.

    The numerical settings are not per run: the density floor, the time-step
    bound and the collapse guard read ``RHO_FLOOR``, ``STABILITY_FACTOR`` and
    ``COLLAPSE_FRACTION``.
    """

    hbar: float
    mass: float
    lam: float
    potential: np.ndarray


def physical_params(
    grid: Grid,
    mass: float = 1.0,
    hbar: float = 1.0,
    lam: float = 1.0,
    potential: np.ndarray | None = None,
) -> PhysicalParams:
    """Validated constructor; no potential means a free run."""
    if not 0 < mass < math.inf:
        raise ValueError(f"mass must be finite and positive, got {mass}")
    if not 0 < hbar < math.inf:
        raise ValueError(f"hbar must be finite and positive, got {hbar}")
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    if potential is None:
        potential = np.zeros(grid.n_points)
    else:
        potential = np.asarray(potential, dtype=float)
        if potential.shape != (grid.n_points,):
            raise ValueError("potential must be sampled on the grid")
        if not np.isfinite(potential).all():
            raise ValueError("potential must be finite")
    return PhysicalParams(hbar, mass, lam, potential)


@dataclass(frozen=True)
class LambdaState:
    """Density and phase on the grid at one instant."""

    rho: np.ndarray
    s: np.ndarray
    time: float = 0.0


def normalize_density(rho: np.ndarray, grid: Grid) -> np.ndarray:
    rho = np.clip(np.asarray(rho, dtype=float), 0.0, None)
    total = rho.sum() * grid.dx
    if total <= 0:
        raise ValueError("density must have positive mass")
    return rho / total


# ---------------------------------------------------------------------------
# Polar form.


def polar_decompose(rho: np.ndarray, s: np.ndarray, params: PhysicalParams) -> np.ndarray:
    """Complex field sqrt(rho) * exp(i S / hbar)."""
    return np.sqrt(np.clip(rho, 0.0, None)) * np.exp(1j * np.asarray(s) / params.hbar)


def polar_compose(psi: np.ndarray, params: PhysicalParams) -> tuple[np.ndarray, np.ndarray]:
    """Recover (rho, S) from the field.

    S is defined modulo 2*pi*hbar; it is unwrapped continuously across cells
    whose density clears the floor and filled by linear interpolation where
    the phase is undefined.
    """
    rho = np.abs(psi) ** 2
    phase = np.angle(psi)
    good = rho > RHO_FLOOR
    if good.any():
        idx = np.flatnonzero(good)
        unwrapped = np.unwrap(phase[idx])
        phase = np.interp(np.arange(len(psi)), idx, unwrapped)
    return rho, params.hbar * phase


# ---------------------------------------------------------------------------
# Quantum potential.


def quantum_potential(rho: np.ndarray, grid: Grid, params: PhysicalParams) -> np.ndarray:
    """Q = -(hbar^2 / 2m) * lap(sqrt(rho)) / sqrt(rho), regularized at nodes.

    The Laplacian is spectral.  ``RHO_FLOOR`` keeps the quotient finite where
    rho vanishes; there Q decays to zero on flat stretches.
    """
    rho = np.asarray(rho, dtype=float)
    # Additive regularization: a hard max(rho, floor) clamp puts a kink in
    # sqrt(rho) and a step in the effective potential right at the floor
    # boundary, which pumps amplitude into the sub-floor region; sqrt(rho +
    # floor) is smooth, agrees with sqrt(rho) to O(floor/rho) in the bulk,
    # and sends Q to zero in flat sub-floor regions.
    sq = np.sqrt(np.clip(rho, 0.0, None) + RHO_FLOOR)
    lap = np.fft.ifft(-(grid.k**2) * np.fft.fft(sq)).real
    return -(params.hbar**2 / (2.0 * params.mass)) * lap / sq


# ---------------------------------------------------------------------------
# Time stepping.


def _field_params(params: PhysicalParams) -> PhysicalParams:
    """``params`` with hbar replaced by the field's hbar_eff = sqrt(lam) * hbar.

    At lam = 0 hbar_eff vanishes, so the field keeps the physical hbar and
    ``_advance_field`` subtracts Q instead.
    """
    if params.lam == 0.0:
        return params
    return replace(params, hbar=math.sqrt(params.lam) * params.hbar)


def _advance_field(
    psi: np.ndarray, dt: float, params: PhysicalParams, grid: Grid, half: np.ndarray
) -> np.ndarray:
    """One lam = 0 Strang step (half kinetic, potential, half kinetic) of the field.

    ``half`` is the half-step kinetic phase exp(-i hbar k^2 dt / 4m), built
    once by the caller.  The potential substep uses V - Q[|psi|^2] at the
    midpoint density, so the field returns to position space within each
    step: six FFTs per step, two of them for Q.
    """
    psi = np.fft.ifft(half * np.fft.fft(psi))
    v_eff = params.potential - quantum_potential(np.abs(psi) ** 2, grid, params)
    psi = psi * np.exp(-1j * v_eff * dt / params.hbar)
    return np.fft.ifft(half * np.fft.fft(psi))


def _fields(
    psi: np.ndarray, dt: float, params: PhysicalParams, grid: Grid
) -> Iterator[np.ndarray]:
    """Yield the field after each successive step of size dt, without end.

    ``params`` come from ``_field_params``, so their hbar is the field's.
    Every phase is built once, on the first step.  For lam > 0 the field is
    kept as its spectrum psi_hat across steps, so the Strang product
    K/2 P K/2 never takes the ifft/fft pair between one step's closing half
    kinetic phase and the next step's opening one: a free step is
    psi_hat <- full * psi_hat with full = half**2, and with a potential
    psi_hat <- half * fft(kick * ifft(half * psi_hat)).  One inverse FFT
    per step then gives the yielded field, so a step costs one FFT free and
    three with a potential (plus one FFT into k-space at the start).
    """
    half = np.exp(-1j * params.hbar * grid.k**2 * dt / (4.0 * params.mass))
    if params.lam == 0.0:
        while True:
            psi = _advance_field(psi, dt, params, grid, half)
            yield psi
    psi_hat = np.fft.fft(psi)
    if not params.potential.any():
        full = half * half
        while True:
            psi_hat = full * psi_hat
            yield np.fft.ifft(psi_hat)
    kick = np.exp(-1j * params.potential * dt / params.hbar)
    while True:
        psi_hat = half * np.fft.fft(kick * np.fft.ifft(half * psi_hat))
        yield np.fft.ifft(psi_hat)


def check_timestep(dt: float, grid: Grid, params: PhysicalParams) -> None:
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    bound = STABILITY_FACTOR * grid.dx**2 * params.mass / params.hbar
    if dt > bound:
        raise StabilityViolation(f"dt={dt} exceeds stability bound {bound:.3e}")


def _coarse_subfloor(rho: np.ndarray) -> float:
    # 5-cell periodic box filter: isolated fringe minima disappear, genuine
    # voids survive, so the collapse guard does not trip on interference.
    kernel = np.full(5, 0.2)
    padded = np.concatenate([rho[-2:], rho, rho[:2]])
    return float(np.mean(np.convolve(padded, kernel, mode="valid") <= RHO_FLOOR))


def _collapse_guard(baseline: float, rho: np.ndarray) -> None:
    # Collapse means voids growing beyond what the reference state already
    # had; interference minima oscillating through the floor do not count.
    newly = _coarse_subfloor(rho) - baseline
    if newly > COLLAPSE_FRACTION:
        raise DensityCollapse(
            f"density floor newly activated over {newly:.0%} of the grid"
        )


def _check_state(state: LambdaState, grid: Grid) -> None:
    if not (np.isfinite(state.rho).all() and np.isfinite(state.s).all()):
        raise ValueError("state density and phase must be finite")
    total = float(np.asarray(state.rho).sum() * grid.dx)
    if not abs(total - 1.0) <= 1e-8:
        raise ValueError(f"state density integrates to {total!r}, not 1")
    if np.any(np.asarray(state.rho) < 0):
        raise ValueError("state density must be non-negative")


def step(state: LambdaState, dt: float, params: PhysicalParams, grid: Grid) -> LambdaState:
    """Advance (rho, S) by one dt; S stays the physical action at every lam.

    The step is the first step of ``evolve``'s loop: for lam > 0 the field
    goes to k-space, takes one linear step there and comes back (two FFTs
    free, four with a potential).
    """
    check_timestep(dt, grid, params)
    _check_state(state, grid)
    field = _field_params(params)
    psi = polar_decompose(state.rho, state.s, field)
    baseline = _coarse_subfloor(state.rho)
    psi = next(_fields(psi, dt, field, grid))
    rho, s = polar_compose(psi, field)
    _collapse_guard(baseline, rho)
    return LambdaState(rho, s, state.time + dt)


@dataclass(frozen=True)
class Observables:
    """Diagnostics recorded along an evolution."""

    time: float
    norm: float
    mean_x: float
    width: float
    visibility: float


def compute_observables(
    rho: np.ndarray,
    grid: Grid,
    time: float = 0.0,
    window: tuple[float, float] | None = None,
    visibility_rel_floor: float = 0.0,
) -> Observables:
    """Norm, centroid, packet width, and windowed fringe visibility.

    Visibility is (max - min) / (max + min) of the density over the window
    (whole domain when None).  Values are clamped from below at
    ``VISIBILITY_FLOOR``, or at ``visibility_rel_floor`` times the global
    density maximum if that is larger, so structure too faint to resolve
    reads as flat.
    """
    x = grid.x
    norm = float(rho.sum() * grid.dx)
    mean = float((x * rho).sum() * grid.dx / norm)
    var = float(((x - mean) ** 2 * rho).sum() * grid.dx / norm)
    width = float(np.sqrt(max(var, 0.0)))
    if window is None:
        sel = np.ones_like(rho, dtype=bool)
    else:
        lo, hi = window
        sel = (x >= lo) & (x <= hi)
        if not sel.any():
            raise ValueError(f"visibility window {window} contains no grid points")
    clamp = max(VISIBILITY_FLOOR, visibility_rel_floor * float(rho.max()))
    clamped = np.maximum(rho[sel], clamp)
    hi_v, lo_v = float(clamped.max()), float(clamped.min())
    visibility = (hi_v - lo_v) / (hi_v + lo_v)
    return Observables(time, norm, mean, width, visibility)


def evolve(
    initial: LambdaState,
    params: PhysicalParams,
    grid: Grid,
    t_final: float,
    dt: float,
    record_every: int = 1,
    window: tuple[float, float] | None = None,
    visibility_rel_floor: float = 0.0,
    collect_frames: bool = False,
    step_budget: int = STEP_BUDGET,
) -> tuple[list[Observables], list[np.ndarray]]:
    """Run round(t_final / dt) steps, recording observables periodically.

    The field psi = sqrt(rho) exp(iS/hbar_eff) is kept in complex form
    across steps (no per-step polar round-trip), so runs are deterministic
    given inputs; for lam > 0 it follows the linear Schroedinger equation
    with hbar_eff = sqrt(lam) * hbar (see the module docstring) and is
    carried as its spectrum, so a step costs one FFT free and three with a
    potential.  The collapse guard checks the density after every step.
    Returns the records and, when ``collect_frames``, the density frames
    alongside.  A run of more than ``step_budget`` steps, of more than
    ``RECORDS_LIMIT`` records, or whose frames would take more than
    ``FRAME_BYTES_LIMIT`` bytes, raises SizeLimitExceeded before the first
    step.
    """
    check_timestep(dt, grid, params)
    _check_state(initial, grid)
    if not 0 <= t_final < math.inf:
        raise ValueError(f"t_final must be finite and >= 0, got {t_final}")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    if not 0 <= visibility_rel_floor < math.inf:
        raise ValueError(
            f"visibility_rel_floor must be finite and >= 0, got {visibility_rel_floor}"
        )
    ratio = t_final / dt
    if not math.isfinite(ratio):
        raise ValueError(f"t_final / dt = {t_final} / {dt} is not a finite step count")
    n_steps = round(ratio)
    if n_steps > step_budget:
        raise SizeLimitExceeded(
            f"t_final / dt = {t_final} / {dt} is {ratio:.3g} steps, "
            f"more than the step budget of {step_budget}"
        )
    # the initial record, then one per record_every steps and one at the end;
    # a frame goes with each record
    n_records = 1 + -(-n_steps // record_every)
    if n_records > RECORDS_LIMIT:
        raise SizeLimitExceeded(f"{n_records} records exceed the record limit of {RECORDS_LIMIT}")
    n_frames = n_records if collect_frames else 0
    if n_frames * grid.n_points * 8 > FRAME_BYTES_LIMIT:
        raise SizeLimitExceeded(f"{n_frames} frames of {grid.n_points} points exceed the "
                                f"frame limit of {FRAME_BYTES_LIMIT} bytes")
    field = _field_params(params)
    psi = polar_decompose(initial.rho, initial.s, field)
    rho = np.abs(psi) ** 2
    records = [compute_observables(rho, grid, initial.time, window, visibility_rel_floor)]
    frames = [rho.copy()] if collect_frames else []
    baseline = _coarse_subfloor(rho)
    for i, psi in zip(range(1, n_steps + 1), _fields(psi, dt, field, grid)):
        rho = np.abs(psi) ** 2
        _collapse_guard(baseline, rho)
        if i % record_every == 0 or i == n_steps:
            records.append(
                compute_observables(
                    rho, grid, initial.time + i * dt, window, visibility_rel_floor
                )
            )
            if collect_frames:
                frames.append(rho.copy())
    return records, frames


# ---------------------------------------------------------------------------
# Initial data and potentials.


def gaussian_density(grid: Grid, mu: float, sigma0: float) -> np.ndarray:
    if not 0 < sigma0 < math.inf:
        raise ValueError(f"packet width must be finite and positive, got {sigma0}")
    rho = np.exp(-((grid.x - mu) ** 2) / (2.0 * sigma0**2))
    return normalize_density(rho, grid)


def gaussian_state(
    grid: Grid, params: PhysicalParams, mu: float, sigma0: float, momentum: float = 0.0
) -> LambdaState:
    """Gaussian packet of width sigma0 at mu, with uniform momentum."""
    rho = gaussian_density(grid, mu, sigma0)
    return LambdaState(rho, momentum * grid.x, 0.0)


def two_gaussian_state(
    grid: Grid,
    params: PhysicalParams,
    separation: float,
    sigma0: float,
    momentum: float = 0.0,
) -> LambdaState:
    """Two packets at +-separation/2; momenta (if any) point at each other."""
    if not 0 < sigma0 < math.inf:
        raise ValueError(f"packet width must be finite and positive, got {sigma0}")
    x = grid.x
    a = separation / 2.0
    left = np.exp(-((x + a) ** 2) / (4.0 * sigma0**2)) * np.exp(1j * momentum * x / params.hbar)
    right = np.exp(-((x - a) ** 2) / (4.0 * sigma0**2)) * np.exp(-1j * momentum * x / params.hbar)
    psi = left + right
    rho = np.abs(psi) ** 2
    rho /= rho.sum() * grid.dx
    psi = psi / np.sqrt((np.abs(psi) ** 2).sum() * grid.dx)
    _, s = polar_compose(psi, params)
    return LambdaState(rho, s, 0.0)


def harmonic_potential(grid: Grid, k: float) -> np.ndarray:
    return 0.5 * k * grid.x**2


# ---------------------------------------------------------------------------
# sigma -> lambda maps.


def lambda_from_sigma(
    sigma: float,
    params: PhysicalParams,
    map_spec: Sequence[tuple[float, float]] | None = None,
) -> float:
    """Strength of the curvature term as a function of the diffusion scale.

    The default map is clamp(mass * sigma / hbar, 0, 1): sigma = hbar/mass
    is the fully wave-like regime, sigma = 0 the classical one.  A custom
    map is a monotone piecewise-linear table of (sigma, lambda) pairs,
    clamped to its end values outside the table range.
    """
    if not 0 <= sigma < math.inf:
        raise ValueError(f"sigma must be finite and >= 0, got {sigma}")
    if map_spec is None:
        return min(max(params.mass * sigma / params.hbar, 0.0), 1.0)
    points = [(float(s), float(l)) for s, l in map_spec]
    for point in points:
        if not all(map(math.isfinite, point)):
            raise NonMonotoneMap(f"lambda map entry {point} is not finite")
    if len(points) < 2:
        raise NonMonotoneMap("a lambda map needs at least two points")
    sigmas = [p[0] for p in points]
    lams = [p[1] for p in points]
    if any(b <= a for a, b in zip(sigmas, sigmas[1:])):
        raise NonMonotoneMap("map sigmas must be strictly increasing")
    if any(b < a for a, b in zip(lams, lams[1:])):
        raise NonMonotoneMap("map lambdas must be non-decreasing")
    if lams[0] < 0.0 or lams[-1] > 1.0:
        raise NonMonotoneMap("map lambdas must lie in [0, 1]")
    return float(np.interp(sigma, sigmas, lams))
