from dataclasses import astuple

import numpy as np
import pytest

import sheafkit as sk
from sheafkit import dynamics
from sheafkit.errors import DensityCollapse, NonMonotoneMap, SizeLimitExceeded, StabilityViolation
from helpers import reference_evolve, reference_step


def make_grid(n=512, length=16.0):
    return sk.Grid(n, length)


# --- grid and params ---------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError):
        sk.Grid(500, 16.0)  # not a power of two
    with pytest.raises(ValueError):
        sk.Grid(32, 16.0)  # below 64
    with pytest.raises(ValueError):
        sk.Grid(64, -1.0)
    g = sk.Grid(64, 8.0)
    assert g.dx == 0.125
    assert len(g.x) == 64 and abs(g.x[0] + 4.0) < 1e-15


def test_grid_points_are_capped():
    # checked at construction, before any array of that size exists
    with pytest.raises(SizeLimitExceeded):
        sk.Grid(2**40, 16.0)
    with pytest.raises(SizeLimitExceeded):
        sk.Grid(2 * dynamics.GRID_POINTS_LIMIT, 16.0)
    assert sk.Grid(dynamics.GRID_POINTS_LIMIT, 16.0).n_points == dynamics.GRID_POINTS_LIMIT


@pytest.mark.parametrize("n", [64.0, "64", True], ids=["float", "str", "bool"])
def test_grid_points_must_be_an_integer(n):
    with pytest.raises(ValueError, match="n_points must be an integer"):
        sk.Grid(n, 8.0)


def test_lambda_range_enforced():
    g = make_grid(64, 8.0)
    with pytest.raises(ValueError):
        sk.physical_params(g, lam=1.5)
    with pytest.raises(ValueError):
        sk.physical_params(g, lam=-0.1)


def test_potential_shape_checked():
    g = make_grid(64, 8.0)
    with pytest.raises(ValueError):
        sk.physical_params(g, potential=np.zeros(32))


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_grid_and_params_rejected(value):
    with pytest.raises(ValueError, match="length must be finite"):
        sk.Grid(64, value)
    g = make_grid(64, 8.0)
    with pytest.raises(ValueError, match="mass must be finite"):
        sk.physical_params(g, mass=value)
    with pytest.raises(ValueError, match="hbar must be finite"):
        sk.physical_params(g, hbar=value)
    with pytest.raises(ValueError, match="potential must be finite"):
        sk.physical_params(g, potential=np.full(64, value))
    p = sk.physical_params(g)
    with pytest.raises(ValueError, match="packet width must be finite"):
        dynamics.gaussian_density(g, 0.0, value)
    with pytest.raises(ValueError, match="packet width must be finite"):
        dynamics.two_gaussian_state(g, p, 1.0, value)
    st = dynamics.gaussian_state(g, p, 0.0, 0.5)
    with pytest.raises(ValueError, match="visibility_rel_floor must be finite"):
        sk.evolve(st, p, g, t_final=1e-3, dt=1e-4, visibility_rel_floor=value)


def test_non_finite_state_rejected_by_step_and_evolve():
    g = make_grid()
    p = sk.physical_params(g)
    st = dynamics.gaussian_state(g, p, 0.0, 0.5)
    bad_rho = st.rho.copy()
    bad_rho[7] = np.nan
    for bad in (sk.LambdaState(bad_rho, st.s), sk.LambdaState(st.rho, st.s * np.nan)):
        with pytest.raises(ValueError, match="must be finite"):
            sk.step(bad, 1e-4, p, g)
        with pytest.raises(ValueError, match="must be finite"):
            sk.evolve(bad, p, g, t_final=1e-3, dt=1e-4)


# --- polar form ----------------------------------------------------------------


def test_polar_uniform_state():
    g = make_grid()
    p = sk.physical_params(g)
    rho = np.full(g.n_points, 1.0 / g.length)
    psi = sk.polar_decompose(rho, np.zeros(g.n_points), p)
    assert np.allclose(psi.imag, 0)
    assert np.allclose(psi.real, np.sqrt(1.0 / g.length))


def test_polar_plane_wave_gaussian():
    g = make_grid()
    p = sk.physical_params(g)
    st = dynamics.gaussian_state(g, p, mu=0.0, sigma0=0.5, momentum=2.0)
    psi = sk.polar_decompose(st.rho, st.s, p)
    # |psi|^2 is the Gaussian; local wavenumber is momentum / hbar
    assert np.allclose(np.abs(psi) ** 2, st.rho)
    core = np.abs(g.x) < 1.0
    phase = np.unwrap(np.angle(psi[core]))
    k_local = np.gradient(phase, g.dx)
    assert np.allclose(k_local, 2.0, atol=1e-6)


def test_polar_round_trip():
    g = make_grid()
    p = sk.physical_params(g)
    rng = np.random.default_rng(12)
    # smooth random state, well above the floor
    rho = 1.0 + 0.5 * np.sin(2 * np.pi * g.x / g.length)
    rho += 0.1 * np.real(np.fft.ifft(rng.normal(size=g.n_points) * (np.abs(g.k) < 3)))
    rho = np.clip(rho, 0.05, None)
    rho /= rho.sum() * g.dx
    s = 0.3 * np.cos(2 * np.pi * g.x / g.length)
    psi = sk.polar_decompose(rho, s, p)
    rho2, s2 = sk.polar_compose(psi, p)
    assert np.max(np.abs(rho2 - rho)) < 1e-12
    # S is defined modulo 2 pi hbar: compare after removing a global shift
    shift = np.round((s2 - s)[0] / (2 * np.pi * p.hbar)) * 2 * np.pi * p.hbar
    assert np.max(np.abs(s2 - s - shift)) < 1e-10


# --- quantum potential -----------------------------------------------------------


def test_quantum_potential_uniform_zero():
    g = make_grid()
    p = sk.physical_params(g)
    rho = np.full(g.n_points, 1.0 / g.length)
    q = sk.quantum_potential(rho, g, p)
    assert np.max(np.abs(q)) < 1e-9


def test_quantum_potential_gaussian_analytic():
    g = make_grid()
    p = sk.physical_params(g)
    sigma0 = 0.5
    rho = dynamics.gaussian_density(g, 0.0, sigma0)
    analytic = (p.hbar**2 / (2 * p.mass)) * (
        1.0 / (2 * sigma0**2) - g.x**2 / (4 * sigma0**4)
    )
    core = np.abs(g.x) < 2.0
    q = sk.quantum_potential(rho, g, p)
    assert np.max(np.abs(q - analytic)[core]) < 5e-3


def test_quantum_potential_finite_on_floored_tails():
    g = make_grid()
    p = sk.physical_params(g)
    rho = dynamics.gaussian_density(g, 0.0, 0.2)  # tails deep below the floor
    q = sk.quantum_potential(rho, g, p)
    assert np.all(np.isfinite(q))


# --- stepping --------------------------------------------------------------------


def test_stability_bound_enforced():
    g = make_grid()
    p = sk.physical_params(g)
    st = dynamics.gaussian_state(g, p, 0.0, 0.5)
    bad_dt = 0.3 * g.dx**2  # above the 0.2 dx^2 m/hbar default bound
    with pytest.raises(StabilityViolation):
        sk.step(st, bad_dt, p, g)
    with pytest.raises(StabilityViolation):
        sk.evolve(st, p, g, t_final=0.1, dt=bad_dt)
    with pytest.raises(ValueError, match="dt must be positive"):
        sk.step(st, 0.0, p, g)


def test_evolve_rejects_a_step_count_that_overflows():
    g = make_grid()
    p = sk.physical_params(g, lam=1.0)
    st = dynamics.gaussian_state(g, p, 0.0, 0.5)
    with pytest.raises(ValueError, match="not a finite step count"):
        sk.evolve(st, p, g, t_final=1e308, dt=1e-4)


def test_frame_bytes_are_capped_before_the_first_step(monkeypatch):
    g = make_grid(64, 8.0)
    p = sk.physical_params(g, lam=1.0)
    st = dynamics.gaussian_state(g, p, 0.0, 0.5)
    run = dict(t_final=1e-2, dt=1e-3, record_every=3)
    # 10 steps, recorded every 3: frames at steps 0, 3, 6, 9 and 10
    monkeypatch.setattr(dynamics, "FRAME_BYTES_LIMIT", 5 * 64 * 8)
    assert len(sk.evolve(st, p, g, collect_frames=True, **run)[1]) == 5
    monkeypatch.setattr(dynamics, "FRAME_BYTES_LIMIT", 5 * 64 * 8 - 1)
    records, frames = sk.evolve(st, p, g, **run)  # records alone are not capped
    assert (len(records), frames) == (5, [])

    def no_step(*args):
        raise AssertionError("evolve stepped before checking the frame limit")

    monkeypatch.setattr(dynamics, "_fields", no_step)
    with pytest.raises(SizeLimitExceeded, match="frame limit"):
        sk.evolve(st, p, g, collect_frames=True, **run)


def test_records_are_capped_before_the_first_step(monkeypatch):
    g = make_grid(64, 8.0)
    p = sk.physical_params(g, lam=1.0)
    st = dynamics.gaussian_state(g, p, 0.0, 0.5)
    run = dict(t_final=1e-2, dt=1e-3, record_every=3)
    # 10 steps, recorded every 3: records at steps 0, 3, 6, 9 and 10
    monkeypatch.setattr(dynamics, "RECORDS_LIMIT", 5)
    assert len(sk.evolve(st, p, g, **run)[0]) == 5
    monkeypatch.setattr(dynamics, "RECORDS_LIMIT", 4)

    def no_step(*args):
        raise AssertionError("evolve stepped before checking the record limit")

    monkeypatch.setattr(dynamics, "_fields", no_step)
    with pytest.raises(SizeLimitExceeded, match="record limit"):
        sk.evolve(st, p, g, **run)


def test_step_advances_and_conserves_norm():
    g = make_grid()
    p = sk.physical_params(g, lam=1.0)
    st = dynamics.gaussian_state(g, p, 0.0, 0.5)
    st2 = sk.step(st, 1.5e-4, p, g)
    assert st2.time == pytest.approx(1.5e-4)
    assert abs(st2.rho.sum() * g.dx - 1.0) < 1e-10


def test_free_gaussian_width_law():
    g = make_grid()
    p = sk.physical_params(g, lam=1.0)
    sigma0 = 0.5
    st = dynamics.gaussian_state(g, p, 0.0, sigma0)
    recs, _ = sk.evolve(st, p, g, t_final=1.0, dt=1.5e-4, record_every=1000)
    for r in recs:
        expected = sigma0 * np.sqrt(1.0 + (p.hbar * r.time / (2 * p.mass * sigma0**2)) ** 2)
        assert abs(r.width - expected) / expected < 0.01


def test_lambda_zero_zero_momentum_static():
    g = make_grid()
    p = sk.physical_params(g, lam=0.0)
    st = dynamics.gaussian_state(g, p, 0.0, 0.5)
    recs, frames = sk.evolve(
        st, p, g, t_final=0.5, dt=1.5e-4, record_every=500, collect_frames=True
    )
    drift = max(np.max(np.abs(f - frames[0])) for f in frames)
    assert drift < 1e-6


def test_lambda_zero_rigid_transport():
    # with uniform momentum the lam=0 packet translates without spreading
    g = make_grid()
    p = sk.physical_params(g, lam=0.0)
    st = dynamics.gaussian_state(g, p, mu=-2.0, sigma0=0.5, momentum=1.0)
    recs, frames = sk.evolve(
        st, p, g, t_final=0.4, dt=1.6e-4, record_every=10**9, collect_frames=True
    )
    expected = dynamics.gaussian_density(g, -2.0 + 0.4, 0.5)
    assert np.max(np.abs(frames[-1] - expected)) < 1e-6
    assert abs(recs[-1].width - 0.5) < 1e-4


def test_lambda_one_equals_plain_linear_solver():
    g = make_grid()
    p = sk.physical_params(g, lam=1.0, potential=dynamics.harmonic_potential(g, 2.0))
    st = dynamics.gaussian_state(g, p, 0.5, 0.4)
    psi = sk.polar_decompose(st.rho, st.s, p)
    dt = 1.5e-4

    # independent plain split-step without any lambda machinery
    ref = psi.copy()
    kin = np.exp(-1j * p.hbar * g.k**2 * dt / (4 * p.mass))
    for _ in range(200):
        ref = np.fft.ifft(kin * np.fft.fft(ref))
        ref *= np.exp(-1j * p.potential * dt / p.hbar)
        ref = np.fft.ifft(kin * np.fft.fft(ref))

    cur = st
    for _ in range(200):
        cur = sk.step(cur, dt, p, g)
    rho_ref = np.abs(ref) ** 2
    assert np.max(np.abs(cur.rho - rho_ref)) < 1e-10


def test_step_loop_matches_evolve():
    # the public step() round-trips through polar form each call, rebuilding
    # the field with hbar_eff below lambda = 1; that must not disturb the
    # density relative to evolve's internal complex loop, for a moving packet
    # and a colliding pair
    g = make_grid()
    p = sk.physical_params(g, lam=0.6)
    dt = 1.5e-4
    for st in (
        dynamics.gaussian_state(g, p, 0.5, 0.4, momentum=0.8),
        dynamics.two_gaussian_state(g, p, separation=3.0, sigma0=0.4, momentum=2.0),
    ):
        cur = st
        for _ in range(50):
            cur = sk.step(cur, dt, p, g)
        _, frames = sk.evolve(st, p, g, t_final=50 * dt, dt=dt, record_every=10**9,
                              collect_frames=True)
        assert np.max(np.abs(cur.rho - frames[-1])) < 1e-9
        assert cur.time == pytest.approx(50 * dt)


@pytest.mark.parametrize("potential", ["free", "harmonic"])
def test_kspace_loop_matches_position_space_reference(potential):
    # carrying the spectrum with merged half-kinetic phases is the same Strang
    # product as the four-FFT step, so lam > 0 agrees to round-off; lam = 0
    # keeps the reference's arithmetic exactly
    g = make_grid()
    pot = dynamics.harmonic_potential(g, 2.0) if potential == "harmonic" else None
    dt, n = 1.5e-4, 300
    for lam in (0.0, 0.3, 0.5, 1.0):
        p = sk.physical_params(g, lam=lam, potential=pot)
        for st in (
            dynamics.gaussian_state(g, p, 0.5, 0.4, momentum=0.8),
            dynamics.two_gaussian_state(g, p, separation=3.0, sigma0=0.4, momentum=2.0),
        ):
            recs, frames = sk.evolve(st, p, g, t_final=n * dt, dt=dt, record_every=100,
                                     collect_frames=True)
            ref_recs, ref_frames = reference_evolve(st, p, g, n * dt, dt, record_every=100)
            got, want = ([astuple(r) for r in rs] for rs in (recs, ref_recs))
            if lam == 0.0:
                assert np.array_equal(frames, ref_frames)
                assert np.array_equal(got, want)
                cur = ref = st
                for _ in range(50):
                    cur, ref = sk.step(cur, dt, p, g), reference_step(ref, dt, p, g)
                assert np.array_equal(cur.rho, ref.rho) and np.array_equal(cur.s, ref.s)
            else:
                assert np.max(np.abs(np.subtract(frames, ref_frames))) < 1e-11
                assert np.max(np.abs(np.subtract(got, want))) < 1e-10


@pytest.mark.parametrize("lam, first", [(1.0, 1000), (0.5, 1772)])
def test_collapse_guard_checks_every_step(lam, first):
    # a spread packet with its phase reversed refocuses toward sigma0 = 0.15
    # at step 2000 and voids most of the grid; evolve must raise at the first
    # step whose density newly floors more than COLLAPSE_FRACTION of the grid,
    # also when it records only the final step, whose density by step 4000 is
    # as spread as the baseline again
    g = make_grid()
    p = sk.physical_params(g, lam=lam)
    dt = 1.5e-4
    st = dynamics.gaussian_state(g, p, 0.0, 0.15)
    for _ in range(2000):
        st = sk.step(st, dt, p, g)
    st = dynamics.LambdaState(st.rho, -st.s)
    sk.evolve(st, p, g, t_final=(first - 1) * dt, dt=dt, record_every=10**9)
    for n in (first, 4000):
        with pytest.raises(DensityCollapse):
            sk.evolve(st, p, g, t_final=n * dt, dt=dt, record_every=10**9)


def test_fft_calls_per_step(monkeypatch):
    # lam > 0 keeps the spectrum across steps: one inverse FFT per free step,
    # three FFTs with a kick, plus one forward FFT per run; lam = 0 makes six
    calls = []
    for name in ("fft", "ifft"):
        def counted(a, *args, _original=getattr(np.fft, name), **kwargs):
            calls.append(a.shape)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    g = make_grid()
    harmonic = dynamics.harmonic_potential(g, 2.0)
    n, dt = 40, 1.5e-4
    for lam, pot, per_evolve, per_step in (
        (1.0, None, n + 1, 2),
        (0.5, None, n + 1, 2),
        (1.0, harmonic, 3 * n + 1, 4),
        (0.5, harmonic, 3 * n + 1, 4),
        (0.0, None, 6 * n, 6),
        (0.0, harmonic, 6 * n, 6),
    ):
        p = sk.physical_params(g, lam=lam, potential=pot)
        st = dynamics.gaussian_state(g, p, 0.0, 0.5)
        calls.clear()
        sk.evolve(st, p, g, t_final=n * dt, dt=dt)
        assert len(calls) == per_evolve
        calls.clear()
        sk.step(st, dt, p, g)
        assert len(calls) == per_step


def test_initial_state_independent_of_lambda():
    # S is the physical action; only the evolved field carries hbar_eff
    g = make_grid()
    states = [
        dynamics.two_gaussian_state(g, sk.physical_params(g, lam=lam), 3.0, 0.4, momentum=2.0)
        for lam in (1.0, 0.5)
    ]
    assert np.array_equal(states[0].rho, states[1].rho)
    assert np.array_equal(states[0].s, states[1].s)


def _sweep_visibility(lam, dt=1.5e-4, perturbation=0.0):
    # the acceptance sweep configuration (criterion 8)
    g = sk.Grid(1024, 32.0)
    p = sk.physical_params(g, lam=lam)
    st = dynamics.two_gaussian_state(g, p, separation=8.0, sigma0=0.15)
    rho = st.rho * (1.0 + perturbation * np.cos(3.0 * g.x))
    st = dynamics.LambdaState(rho / (rho.sum() * g.dx), st.s)
    recs, _ = sk.evolve(st, p, g, t_final=0.6, dt=dt, record_every=10**9,
                        window=(-0.5, 0.5), visibility_rel_floor=0.02)
    return recs[-1].visibility


@pytest.mark.parametrize("lam", [0.4, 0.5])
def test_sweep_visibility_converged(lam):
    # a float is frozen into a test only once dt/2 and rounding-level
    # perturbations leave it in place
    base = _sweep_visibility(lam)
    assert abs(_sweep_visibility(lam, dt=0.75e-4) - base) < 1e-8
    assert abs(_sweep_visibility(lam, perturbation=1e-13) - base) < 1e-8


def test_coherent_state_width_constant():
    g = make_grid()
    k_spring = 4.0
    omega = 2.0
    p = sk.physical_params(g, lam=1.0, potential=dynamics.harmonic_potential(g, k_spring))
    sig = np.sqrt(p.hbar / (2 * p.mass * omega))
    st = dynamics.gaussian_state(g, p, mu=1.0, sigma0=sig)
    period = 2 * np.pi / omega
    recs, _ = sk.evolve(st, p, g, t_final=period, dt=1.5e-4, record_every=500)
    widths = [r.width for r in recs]
    assert (max(widths) - min(widths)) / sig < 0.005


def test_norm_conservation_long_run():
    g = make_grid()
    for lam in (1.0, 0.3):
        p = sk.physical_params(g, lam=lam)
        st = dynamics.gaussian_state(g, p, 0.0, 0.5)
        recs, _ = sk.evolve(st, p, g, t_final=1.5, dt=1.5e-4, record_every=2500)
        for r in recs:
            assert abs(r.norm - 1.0) < 1e-8


def test_convergence_second_order_in_dt():
    # harmonic coherent state vs its analytic evolution; halving dt must
    # shrink the global density error about fourfold
    g = make_grid()
    k_spring = 4.0
    omega = 2.0
    pot = dynamics.harmonic_potential(g, k_spring)
    sig = np.sqrt(1.0 / (2 * omega))

    def err(dt):
        p = sk.physical_params(g, lam=1.0, potential=pot)
        st = dynamics.gaussian_state(g, p, mu=1.0, sigma0=sig)
        t_fin = 0.5
        _, frames = sk.evolve(st, p, g, t_final=t_fin, dt=dt, record_every=10**9,
                              collect_frames=True)
        mu_t = np.cos(omega * t_fin)
        ana = np.exp(-((g.x - mu_t) ** 2) / (2 * sig**2))
        ana /= ana.sum() * g.dx
        return np.max(np.abs(frames[-1] - ana))

    e1, e2 = err(1.6e-4), err(0.8e-4)
    assert 3.0 < e1 / e2 < 5.5


def test_observables_and_visibility_window():
    g = make_grid()
    rho = dynamics.gaussian_density(g, 1.0, 0.5)
    obs = sk.compute_observables(rho, g, time=2.0, window=(-0.5, 0.5))
    assert obs.time == 2.0
    assert abs(obs.norm - 1.0) < 1e-12
    assert abs(obs.mean_x - 1.0) < 1e-9
    assert abs(obs.width - 0.5) < 1e-3
    assert 0.0 <= obs.visibility <= 1.0
    with pytest.raises(ValueError):
        sk.compute_observables(rho, g, window=(7.91, 7.92))  # between grid points


def test_two_gaussian_state_symmetric():
    g = make_grid(1024, 32.0)
    p = sk.physical_params(g)
    st = dynamics.two_gaussian_state(g, p, separation=8.0, sigma0=0.15)
    assert abs(st.rho.sum() * g.dx - 1.0) < 1e-12
    # mirror symmetric about the origin (x grid is asymmetric by one cell)
    mid = g.n_points // 2
    left = st.rho[1:mid]
    right = st.rho[mid + 1 :][::-1]
    assert np.max(np.abs(left - right)) < 1e-12


def test_lambda_from_sigma_default_map():
    g = make_grid()
    p = sk.physical_params(g, mass=1.0, hbar=1.0)
    assert sk.lambda_from_sigma(1.0, p) == 1.0  # sigma = hbar/m clamps to 1
    assert sk.lambda_from_sigma(0.0, p) == 0.0
    assert sk.lambda_from_sigma(0.25, p) == 0.25
    assert sk.lambda_from_sigma(5.0, p) == 1.0
    with pytest.raises(ValueError):
        sk.lambda_from_sigma(-1.0, p)


@pytest.mark.parametrize("sigma", [float("inf"), float("nan")])
@pytest.mark.parametrize("table", [None, [(0.0, 0.0), (1.0, 1.0)]], ids=["default", "table"])
def test_lambda_from_sigma_rejects_non_finite_sigma(sigma, table):
    # inf would read as lambda = 1, and nan as a lambda out of range
    p = sk.physical_params(make_grid())
    with pytest.raises(ValueError, match="sigma must be finite"):
        sk.lambda_from_sigma(sigma, p, table)


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
@pytest.mark.parametrize("position", [0, 1], ids=["sigma", "lambda"])
def test_lambda_map_entries_must_be_finite(bad, position):
    # an infinite sigma would read as a map that stays at its first lambda
    p = sk.physical_params(make_grid())
    entry = [1.0, 1.0]
    entry[position] = bad
    with pytest.raises(NonMonotoneMap, match="lambda map entry .* is not finite"):
        sk.lambda_from_sigma(0.5, p, [(0.0, 0.0), tuple(entry)])


def test_lambda_from_sigma_table():
    g = make_grid()
    p = sk.physical_params(g)
    table = [(0.0, 0.0), (1.0, 0.5), (2.0, 1.0)]
    assert sk.lambda_from_sigma(1.0, p, table) == 0.5
    assert sk.lambda_from_sigma(1.5, p, table) == 0.75
    assert sk.lambda_from_sigma(9.0, p, table) == 1.0  # clamped to end value
    with pytest.raises(NonMonotoneMap):
        sk.lambda_from_sigma(1.0, p, [(0.0, 0.5), (1.0, 0.2)])
    with pytest.raises(NonMonotoneMap):
        sk.lambda_from_sigma(1.0, p, [(0.0, 0.0), (0.0, 1.0)])
    with pytest.raises(NonMonotoneMap):
        sk.lambda_from_sigma(1.0, p, [(0.0, 0.0)])


def test_lambda_from_sigma_monotone_surjective():
    g = make_grid()
    p = sk.physical_params(g, mass=2.0, hbar=1.0)
    sigmas = np.linspace(0.0, p.hbar / p.mass, 41)
    lams = [sk.lambda_from_sigma(s, p) for s in sigmas]
    assert lams[0] == 0.0 and lams[-1] == 1.0
    assert all(b >= a for a, b in zip(lams, lams[1:]))
