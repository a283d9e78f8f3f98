"""Matrix representation, evolution, continuity, Noether current."""

import csv
import io
import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from qcalc.batteries import run as run_battery
from qcalc.batteries.doubles import eigen_packet, rand_lattice_fn as rand_fn
from qcalc.context import QContext
from qcalc.lattice import (
    InsufficientPadding,
    LatticeFn,
    LatticeGrid,
    SectorRows,
    Stencil,
    definite_integral,
    norm as fn_norm,
)
from qcalc.schrodinger import (
    ChainStructureError,
    EvolutionState,
    GridTooSmall,
    Hamiltonian,
    NonHermitianHamiltonian,
    Representation,
    build_representation,
    check_noether,
    continuity_residual,
    density_current,
    energy_form_residual,
    evolve,
    free_evolve,
    history_to_csv,
    noether_current,
    _sampled_modes,
    stationary_state,
)

D2 = QContext(2.0)
SEED = 20260816


def make_rep(n_min=-12, n_max=12):
    return build_representation(LatticeGrid(D2, n_min, n_max))


# -- representation matrices -------------------------------------------------


def test_grid_too_small():
    with pytest.raises(GridTooSmall):
        build_representation(LatticeGrid(D2, 0, 5))


def test_exact_backend_rejected():
    grid = LatticeGrid(QContext(Fraction(3, 2)), -6, 6)
    with pytest.raises(ValueError):
        build_representation(grid)


def test_x_diagonal():
    rep = make_rep()
    assert set(rep.x.diags) == {0}
    i3 = rep.grid.index(3)
    for s in (1, -1):
        x = rep.x.dense(s)
        assert x[i3, i3] == 8.0 * s
        assert np.max(np.abs(x - np.diag(np.diag(x)))) == 0.0


@pytest.mark.parametrize("q, w", [(1.2, 12), (1.5, 60)])
def test_x_reads_the_grid_points(q, w):
    # windows where numpy's q ** n and the grid's q^n differ in a last bit
    grid = LatticeGrid(QContext(q), -w, w)
    rep = build_representation(grid)
    assert np.array_equal(rep.x.diags[0], grid.points)
    f = rand_fn(random.Random(SEED), grid)
    assert np.array_equal(rep.x @ f.data, f.x_multiply().data)


def test_shift_structure():
    rep = make_rep()
    g = rep.grid
    assert set(rep.lam_op.diags) == {1}
    back = rep.lam_op.adjoint()
    for s in g.sectors:
        shift = rep.lam_op.dense(s)
        for n in range(g.n_min, g.n_max):
            assert shift[g.index(n + 1), g.index(n)] == 1.0
        assert np.array_equal(back.dense(s), shift.T)
        prod = (back @ rep.lam_op).dense(s)
        # the top shift-out site is lost; all others return exactly
        assert np.max(np.abs(prod[:-1, :-1] - np.eye(g.size - 1))) == 0.0
        assert prod[-1, -1] == 0.0


def test_momentum_two_nonzeros_per_column():
    rep = make_rep()
    g = rep.grid
    assert set(rep.p.diags) == {-1, 1}
    for s in (1, -1):
        p = rep.p.dense(s)
        for n in range(g.n_min + 1, g.n_max - 1):
            col = p[:, g.index(n)]
            nz = np.nonzero(np.abs(col) > 0)[0]
            assert set(nz) == {g.index(n - 1), g.index(n + 1)}
            up = 1j * s * D2.inv_lam * D2.qpow(-n) / D2.sqrt_q
            dn = -1j * s * D2.inv_lam * D2.qpow(-n) * D2.sqrt_q
            assert abs(col[g.index(n + 1)] - up) < 1e-12 * abs(up)
            assert abs(col[g.index(n - 1)] - dn) < 1e-12 * abs(dn)


def test_momentum_hermitian():
    rep = make_rep()
    assert (rep.p - rep.p.adjoint()).max_abs() < 1e-9
    for s in (1, -1):
        p = rep.p.dense(s)
        assert np.max(np.abs(p - p.conj().T)) < 1e-9


def test_algebra_relation_interior():
    assert make_rep().relation_residual() < 1e-12


def test_adjoint_identity_nabla_L():
    # matrix adjoint of (nabla L^-1) equals -(nabla L) away from the cut
    assert make_rep().adjoint_residual() < 1e-12


@pytest.mark.parametrize("operator, residual", [
    ("p", "relation_residual"),
    ("nabla", "adjoint_residual"),
])
def test_structural_residuals_propagate_nan(operator, residual):
    # a NaN in the first sector must not lose to the second sector's value
    rep = make_rep()
    getattr(rep, operator).diags[1][0, 5] = np.nan
    assert np.isnan(getattr(rep, residual)())


def test_scale_map_matches_lattice_shift():
    rep = make_rep()
    rng = random.Random(SEED)
    f = rand_fn(rng, rep.grid)
    c = rep.coeffs(f)
    shifted = rep.coeffs(f.L_shift(1))
    got = rep.L @ np.array([c[s] for s in rep.grid.sectors])
    for k, s in enumerate(rep.grid.sectors):
        assert np.max(np.abs(got[k, 1:] - shifted[s][1:])) < 1e-12


# -- the parity-chain eigensolve ------------------------------------------------


@pytest.mark.parametrize("offsets, message", [
    # hermitian, but nabla^2 then couples n to n +- 1
    ({0: 1.0, 1: 1.0, -1: 1.0}, r"offsets \[-1, 1\] couple"),
    # hermitian with imaginary entries at offsets +-2
    ({0: 1.0, 2: 1j, -2: -1j}, r"not real"),
    # real, parity-preserving, but nabla^2 then reaches n +- 4
    ({2: 1.0, -2: 1.0}, r"offsets \[-4, 4\] couple"),
])
def test_hamiltonian_refuses_what_the_chain_solve_cannot_take(offsets,
                                                              message):
    rep = make_rep(-8, 8)
    rep.nabla = Stencil(rep.grid, offsets)
    with pytest.raises(ChainStructureError, match=message):
        Hamiltonian(rep)


@pytest.mark.parametrize("q", [2.0, 1.5, 3.0])
@pytest.mark.parametrize("w", [8, 24, 48])
@pytest.mark.parametrize("harmonic", [False, True], ids=["free", "harmonic"])
def test_chain_solve_matches_the_dense_solve(q, w, harmonic):
    rep = build_representation(LatticeGrid(QContext(q), -w, w))
    x = rep.grid.points
    H = Hamiltonian(rep, potential=0.3 * x * x if harmonic else None)
    evals, evecs = H.eigh()
    n = rep.grid.size
    assert evals.shape == (2, n) and evecs.shape == (2, n, n)
    assert evals.dtype == float and evecs.dtype == complex
    assert np.all(np.diff(evals, axis=-1) >= 0)
    dense = H.stencil.dense()
    ref = np.linalg.eigh(dense)[0]
    assert np.max(np.abs(evals - ref)) <= 1e-14 * np.max(np.abs(ref))
    r = dense @ evecs - evecs * evals[:, None, :]
    assert np.max(np.abs(r)) <= 1e-13 * np.max(np.abs(dense))
    gram = np.conj(evecs).swapaxes(-1, -2) @ evecs
    assert np.max(np.abs(gram - np.eye(n))) <= 1e-13
    # every eigenvector lives on one chain, exactly zero on the other
    on_even = np.any(evecs[:, 0::2, :] != 0, axis=1)
    on_odd = np.any(evecs[:, 1::2, :] != 0, axis=1)
    assert np.all(on_even != on_odd)
    assert np.all(np.sum(on_even, axis=-1) == (n + 1) // 2)


def _dense_slice_eigh(H):
    """The parity-chain solve on slices of the dense matrices, as eigh ran
    before it read the chains from the stencil's diagonals."""
    h = H.stencil.dense().real
    half = (h.shape[-1] + 1) // 2
    vecs = np.zeros(h.shape, dtype=complex)
    w0, vecs[:, 0::2, :half] = np.linalg.eigh(h[:, 0::2, 0::2])
    w1, vecs[:, 1::2, half:] = np.linalg.eigh(h[:, 1::2, 1::2])
    w = np.concatenate((w0, w1), axis=-1)
    order = np.argsort(w, axis=-1, kind="stable")
    return (np.take_along_axis(w, order, -1),
            np.take_along_axis(vecs, order[:, None, :], -1))


POTENTIALS = {"free": lambda x: None, "harmonic": lambda x: 0.3 * x * x,
              "linear": lambda x: 0.1 * x}


@pytest.mark.parametrize("q", [2.0, 1.5, 3.0, 1.1, 2.3943])
@pytest.mark.parametrize("window", [(-8, 8), (-11, 12), (-24, 24), (-31, 36),
                                    (-48, 48)])
@pytest.mark.parametrize("potential", list(POTENTIALS))
def test_chains_from_the_stencil_equal_the_dense_slice_solve(q, window,
                                                             potential):
    rep = build_representation(LatticeGrid(QContext(q), *window))
    H = Hamiltonian(rep, potential=POTENTIALS[potential](rep.grid.points))
    for got, want in zip(H.eigh(), _dense_slice_eigh(H)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def _square_arrays(obj, n):
    """Attributes of obj, one level into tuples and sector views, that hold
    an array of trailing shape (n, n)."""
    found = []
    for name, val in vars(obj).items():
        items = val if isinstance(val, tuple) else (val,)
        for item in items:
            arr = item.rows if isinstance(item, SectorRows) else item
            if isinstance(arr, np.ndarray) and arr.shape[-2:] == (n, n):
                found.append(name)
    return found


def test_no_dense_matrix_until_matrices_is_read():
    rep = make_rep()
    n = rep.grid.size
    H = Hamiltonian(rep, potential=0.3 * rep.grid.points ** 2)
    H.energy(rep.coords(stationary_state(rep)[0]))
    assert _square_arrays(H, n) == []
    # the solve keeps its eigenvectors, and nothing else square
    H.eigh()
    assert _square_arrays(H, n) == ["_eig"]
    dense = H.stencil.dense()
    for s in rep.grid.sectors:
        assert np.array_equal(H.matrices[s], dense[rep.grid.row(s)])
    assert _square_arrays(H, n) == ["_eig", "matrices"]
    assert H.matrices is H.matrices


@pytest.mark.parametrize("q", [2.0, 1.5, 3.0])
def test_energy_is_the_dense_quadratic_form(q):
    rep = build_representation(LatticeGrid(QContext(q), -12, 12))
    H = Hamiltonian(rep, potential=0.3 * rep.grid.points ** 2)
    dense = H.stencil.dense()
    rng = random.Random(SEED + 11)
    for _ in range(5):
        c = rep.coords(rand_fn(rng, rep.grid))
        want = float(np.sum(np.conj(c) * (dense @ c[..., None])[..., 0]).real)
        a = np.abs(c)
        size = np.sum(a[..., None] * np.abs(dense) * a[..., None, :])
        assert abs(H.energy(c) - want) <= 1e-14 * size
        assert H.energy({s: c[rep.grid.row(s)] for s in rep.grid.sectors}) \
            == H.energy(c)


def test_chain_solve_only_sees_real_half_size_blocks(monkeypatch):
    rep = make_rep(-24, 24)
    x = rep.grid.points
    H = Hamiltonian(rep, potential=0.3 * x * x)
    calls = []
    eigh = np.linalg.eigh

    def recording(a, *args, **kwargs):
        calls.append((np.asarray(a).dtype, np.shape(a)))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    H.eigh()
    H.eig(-1)
    assert len(calls) == 2
    for dtype, shape in calls:
        assert not np.issubdtype(dtype, np.complexfloating)
        assert shape[-1] <= math.ceil(rep.grid.size / 2)


# -- stationary states ---------------------------------------------------------


def test_stationary_energy_and_degeneracy():
    rep = make_rep()
    _, e = stationary_state(rep, "C", "2n+1", 0)
    assert abs(e - 0.5 * D2.inv_lam ** 2 * D2.q) < 1e-15
    for n in (-1, 0, 2):
        _, ec = stationary_state(rep, "C", "2n+1", n)
        _, es = stationary_state(rep, "S", "2n", n)
        assert ec == es
    pairs = [stationary_state(rep, "C", "2n+1", n) for n in range(-1, 2)]
    assert [p[1] for p in pairs] == sorted(p[1] for p in pairs)
    with pytest.raises(ValueError):
        stationary_state(rep, "T", "2n", 0)


def _modes_per_site(rep, family, label, n, rows):
    """The sampled basis member by a per-site loop: the normalizer times
    one kernel lookup at each site x times y = q^(2n + site parity)."""
    ctx, grid = rep.ctx, rep.grid
    site_parity = 1 if label == "2n+1" else 0
    norm_const = ctx.q ** n * np.sqrt(2.0 * ctx.q * ctx.inv_lam) * rep.sf.n_q()
    if label == "2n":
        norm_const /= np.sqrt(ctx.q)
    kernel = rep.sf.cos_q if family == "C" else rep.sf.sin_q
    y = ctx.qpow(2 * n + site_parity)
    sites = (rows, slice((site_parity - grid.n_min) % 2, None, 2))
    x = grid.points[sites]
    vals = np.zeros((len(grid.sectors), grid.size), dtype=complex)
    vals[sites] = np.reshape([norm_const * kernel(v * y)
                              for v in x.ravel().tolist()], x.shape)
    return vals


@pytest.mark.parametrize("n_min, n_max", [(-12, 12), (-11, 14)])
def test_sampled_modes_equal_per_site_sums_at_q2(n_min, n_max):
    # at q = 2 each product x y is the lattice point its row entry holds;
    # stationary_state samples one sector, free_evolve every sector
    rep = build_representation(LatticeGrid(D2, n_min, n_max))
    for fam, lab in [("C", "2n+1"), ("C", "2n"), ("S", "2n+1"), ("S", "2n")]:
        for n in (-2, 0, 1):
            for sector in rep.grid.sectors:
                got, _ = stationary_state(rep, fam, lab, n, sector)
                want = _modes_per_site(rep, fam, lab, n,
                                       [rep.grid.row(sector)])
                assert got.data.tobytes() == want.tobytes()
            got, _ = _sampled_modes(rep, fam, lab, n, 1.0, slice(None))
            want = _modes_per_site(rep, fam, lab, n, slice(None))
            assert got.tobytes() == want.tobytes()


def test_stationary_norms():
    # the small-x tail carries O(q^n_min) mass, so the window must reach
    # well below the measured region before the norm settles
    rep = build_representation(LatticeGrid(D2, -24, 14))
    for fam, lab, n in [("C", "2n+1", 0), ("C", "2n", 0),
                        ("S", "2n+1", 0), ("S", "2n", 1)]:
        psi, _ = stationary_state(rep, fam, lab, n)
        assert abs(fn_norm(psi, tail_tol=1e-6) - 1.0) < 1e-6


def test_eigenvalue_table_on_matrix():
    rep = make_rep()
    H = Hamiltonian(rep)
    sl = rep.interior(2)
    for fam, lab, n in [("C", "2n+1", 0), ("C", "2n+1", 1), ("C", "2n", 0),
                        ("S", "2n+1", 0), ("S", "2n", 0), ("S", "2n", -1)]:
        psi, e = stationary_state(rep, fam, lab, n)
        c = rep.coeffs(psi)
        worst = 0.0
        for s in rep.grid.sectors:
            r = H.matrices[s] @ c[s] - e * c[s]
            denom = np.max(np.abs(e * c[s][sl]))
            if denom > 0:
                worst = max(worst, np.max(np.abs(r[sl])) / denom)
        assert worst < 1e-6


# -- evolution ------------------------------------------------------------------


def test_evolve_dt_zero_identity():
    rep = make_rep()
    H = Hamiltonian(rep)
    psi, _ = stationary_state(rep, "C", "2n+1", 0)
    out = evolve(EvolutionState(psi), H, 0.0, steps=3)
    for s in rep.grid.sectors:
        assert np.array_equal(out.psi.sector(s), psi.sector(s))
    assert out.time == 0.0


def test_recorded_evolve_ends_on_the_current_of_its_state():
    rep = make_rep()
    H = Hamiltonian(rep, mass=0.7)
    pkt = eigen_packet(rep, H, random.Random(SEED + 8))
    start = evolve(EvolutionState(pkt), H, 0.01, 2, record=True)
    final = evolve(start, H, 0.01, 3, record=True)
    assert len(final.history) == len(start.history) + 3
    t, rho, j = final.history[-1]
    assert t == final.time
    rho_now, j_now = density_current(final.psi, H.mass)
    for got, want in ((rho, rho_now), (j, j_now)):
        assert (got.pad_lo, got.pad_hi) == (want.pad_lo, want.pad_hi)
        assert_same_bits(got.data, want.data)
    # the recorded density is its own array, not a view of the state
    assert not np.shares_memory(rho.data, final.psi.data)


@pytest.mark.parametrize("record", [False, True])
def test_evolve_without_steps_returns_a_new_function(record):
    rep = make_rep()
    H = Hamiltonian(rep)
    psi, _ = stationary_state(rep, "C", "2n+1", 0)
    out = evolve(EvolutionState(psi), H, 0.1, 0, record=record)
    assert out.psi is not psi
    assert not np.shares_memory(out.psi.data, psi.data)
    assert out.history == [] and out.time == 0.0
    assert np.max(np.abs(out.psi.data - psi.data)) < 1e-15


def _counting(monkeypatch, calls, cls, name):
    inner = getattr(cls, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(cls, name, counted)


@pytest.mark.parametrize("steps, record", [(1, True), (3, True), (3, False)])
def test_work_per_evolve_step(monkeypatch, steps, record):
    # one gradient and one function per recorded step; an unrecorded run
    # builds its function once, at the end
    rep = make_rep()
    H = Hamiltonian(rep)
    state = EvolutionState(eigen_packet(rep, H, random.Random(SEED + 9)))
    calls = Counter()
    _counting(monkeypatch, calls, LatticeFn, "nabla_fn")
    _counting(monkeypatch, calls, Representation, "lattice_fn")
    evolve(state, H, 1e-3, steps, record=record)
    assert calls == Counter(nabla_fn=steps if record else 0,
                            lattice_fn=steps if record else 1)


def test_check_noether_takes_two_gradients(monkeypatch):
    psi = rand_fn(random.Random(SEED + 4), make_rep().grid)
    calls = Counter()
    _counting(monkeypatch, calls, LatticeFn, "nabla_fn")
    check_noether(psi)
    assert calls == Counter(nabla_fn=2)


def test_norm_and_energy_conserved():
    rep = make_rep()
    H = Hamiltonian(rep)
    psi, _ = stationary_state(rep, "C", "2n+1", 0)
    s0 = EvolutionState(psi)
    s1 = evolve(s0, H, 0.2, steps=5)
    assert abs(s1.norm() - s0.norm()) < 1e-10
    e0 = H.energy(rep.coeffs(s0.psi))
    e1 = H.energy(rep.coeffs(s1.psi))
    assert abs(e1 - e0) < 1e-10


def test_truncated_flow_picks_a_different_extension():
    # the sampled eigenstate is NOT stationary under the hard-truncation
    # matrix: the x -> 0 endpoint is limit-circle and the cut imposes its
    # own boundary condition there, at any depth
    rep = make_rep()
    H = Hamiltonian(rep)
    psi, _ = stationary_state(rep, "C", "2n+1", 0)
    out = evolve(EvolutionState(psi), H, 1.0)
    drift = max(abs(abs(out.psi.value(1, n)) - abs(psi.value(1, n)))
                for n in range(-12, 13))
    assert drift > 1e-3


def test_stationarity_in_analytic_basis():
    # deep window: the expansion error decays like q^n_min and sits at
    # the cut; measured drift at n_min = -36 is ~2e-8 on |n| <= 12
    rep = build_representation(LatticeGrid(D2, -36, 12))
    for fam, lab, n in [("C", "2n+1", 0), ("C", "2n", 1)]:
        psi, e = stationary_state(rep, fam, lab, n)
        psit = free_evolve(rep, psi, 1.0)
        drift = max(abs(abs(psit.value(sg, m)) - abs(psi.value(sg, m)))
                    for m in range(-12, 13) for sg in (1, -1))
        assert drift < 1e-6
        # and the phase is the eigenvalue's
        dev = (psit - psi.scale(np.exp(-1j * e))).scale(1.0)
        assert max(abs(dev.value(1, m)) for m in range(-12, 13)) < 1e-6


def test_free_evolve_superposition_norm():
    rep = build_representation(LatticeGrid(D2, -36, 12))
    a, _ = stationary_state(rep, "C", "2n+1", 0)
    b, _ = stationary_state(rep, "C", "2n", 1)
    mix = a + b.scale(0.6j)
    out = free_evolve(rep, mix, 0.7)
    n0 = fn_norm(mix, tail_tol=float("inf"))
    n1 = fn_norm(out, tail_tol=float("inf"))
    assert abs(n1 - n0) < 1e-6


# -- density and current ---------------------------------------------------------


# Reference forms, as the formulas read: nabla(psi*) is taken as its own
# gradient and every product is wrapped and shifted as written.  The
# one-gradient current must reproduce them bit for bit.

def _wronskian(psi):
    """L^-1 [psi* L(nabla psi) - L(nabla psi*) psi]."""
    lgrad = psi.nabla_fn().L_shift(1)
    lgrad_c = psi.conj().nabla_fn().L_shift(1)
    return (psi.conj() * lgrad - lgrad_c * psi).L_shift(-1)


def _reference_density_current(psi, mass):
    return psi.conj() * psi, _wronskian(psi).scale(1.0 / (2.0 * mass * 1j))


def _reference_noether_current(psi, alpha, mass):
    q = psi.grid.ctx.q
    grad = psi.nabla_fn()
    grad_c = psi.conj().nabla_fn()
    inner = grad_c.scale(q) * psi.L_shift(-1) \
        - grad.scale(q) * psi.conj().L_shift(-1)
    return inner.scale(-1j * float(alpha) / (2.0 * mass * q))


def _reference_check_noether(psi, alpha, mass):
    q = psi.grid.ctx.q
    back, back_c = psi.L_shift(-1), psi.conj().L_shift(-1)
    grad = back.nabla_fn().L_shift(1).scale(1.0 / q)
    grad_c = back_c.nabla_fn().L_shift(1).scale(1.0 / q)
    j = (back_c * grad - grad_c * back).scale(1.0 / (2.0 * mass * 1j))
    return (_reference_noether_current(psi, alpha, mass)
            - j.scale(-float(alpha))).max_abs_interior()


def assert_same_bits(got, want):
    """Equal shapes and equal IEEE bit patterns, zero signs and NaNs too."""
    assert got.shape == want.shape
    for a, b in ((got.real, want.real), (got.imag, want.imag)):
        assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def _current_cases(q):
    """A random state, one with a NaN and one with an inf site, a real
    state, a padded one and a batch of three, on a +-10 window."""
    rep = build_representation(LatticeGrid(QContext(q), -10, 10))
    psi = rand_fn(random.Random(SEED + 7), rep.grid)
    nan, inf = psi.copy(), psi.copy()
    nan.sector(1)[6] = np.nan
    inf.sector(-1)[9] = complex(np.inf, 0.5)
    return {"random": psi, "nan": nan, "inf": inf,
            "real": LatticeFn(rep.grid, psi.data.real),
            "padded": psi.L_shift(1),
            "batch": LatticeFn(rep.grid, [psi.data, nan.data, psi.data * 1j])}


@pytest.mark.parametrize("mass", [1.0, 0.7])
@pytest.mark.parametrize("q", [2.0, 1.5, 3.0])
@np.errstate(invalid="ignore")
def test_current_from_one_gradient_is_the_two_gradient_current(q, mass):
    for name, psi in _current_cases(q).items():
        rho, j = density_current(psi, mass)
        rho_ref, j_ref = _reference_density_current(psi, mass)
        assert (j.pad_lo, j.pad_hi) == (j_ref.pad_lo, j_ref.pad_hi), name
        assert (rho.pad_lo, rho.pad_hi) == (psi.pad_lo, psi.pad_hi), name
        assert_same_bits(rho.data, rho_ref.data)
        assert_same_bits(j.interior(), j_ref.interior())

        for alpha in (1.0, -2.5):
            got = check_noether(psi, alpha, mass)
            want = _reference_check_noether(psi, alpha, mass)
            assert repr(got) == repr(want), (name, alpha)
            # equal values; a zero may change its sign
            cur = noether_current(psi, alpha, mass)
            ref = _reference_noether_current(psi, alpha, mass)
            assert (cur.pad_lo, cur.pad_hi) == (ref.pad_lo, ref.pad_hi)
            assert np.array_equal(cur.interior(), ref.interior(),
                                  equal_nan=True), (name, alpha)


def test_density_current_real():
    rep = make_rep()
    rng = random.Random(SEED + 1)
    psi = rand_fn(rng, rep.grid)
    rho, j = density_current(psi)
    for s in rep.grid.sectors:
        assert np.max(np.abs(rho.sector(s).imag)) < 1e-12
        assert np.max(np.abs(j.sector(s).imag)) < 1e-12
    assert np.min(rho.sector(1).real) >= 0.0


def test_real_state_has_zero_current():
    rep = make_rep()
    psi, _ = stationary_state(rep, "C", "2n+1", 0)
    _, j = density_current(psi)
    assert j.max_abs_interior() == 0.0


def test_current_padding_enforced():
    rep = make_rep()
    psi, _ = stationary_state(rep, "C", "2n+1", 0)
    _, j = density_current(psi)
    with pytest.raises(InsufficientPadding):
        j.value(1, rep.grid.n_max)


def test_plane_wave_current_and_continuity():
    # cos + i * scaled sin of one argument family carries a Wronskian
    # current; band-limiting to the resolved spectrum keeps the central
    # difference honest at dt = 1e-3
    rep = make_rep()
    H = Hamiltonian(rep)
    pc, _ = stationary_state(rep, "C", "2n+1", 0)
    ps, _ = stationary_state(rep, "S", "2n+1", 0)
    mix = pc + ps.scale(0.7j)
    _, jraw = density_current(mix)
    assert jraw.max_abs_interior() > 0.1
    bl = rep.lattice_fn(H.band_limit(rep.coeffs(mix), 5.0))
    _, jbl = density_current(bl)
    assert jbl.max_abs_interior() > 1e-3
    state = evolve(EvolutionState(bl), H, 0.37)
    assert continuity_residual(state.psi, H, dt=1e-3) < 1e-6


def test_continuity_for_eigen_packet():
    rep = make_rep()
    H = Hamiltonian(rep)
    rng = random.Random(SEED + 2)
    pkt = eigen_packet(rep, H, rng)
    state = evolve(EvolutionState(pkt), H, 0.37)
    assert continuity_residual(state.psi, H, dt=1e-3) < 1e-6


def test_continuity_integrated_box():
    rep = make_rep()
    H = Hamiltonian(rep)
    rng = random.Random(SEED + 3)
    pkt = evolve(EvolutionState(eigen_packet(rep, H, rng)), H, 0.21).psi
    dt = 1e-3
    fwd = evolve(EvolutionState(pkt), H, dt).psi
    bwd = evolve(EvolutionState(pkt), H, -dt).psi
    rho_f, _ = density_current(fwd)
    rho_b, _ = density_current(bwd)
    _, j = density_current(pkt)
    for s in (1, -1):
        dbox = (definite_integral(rho_f, -8, 8, sector=s)
                - definite_integral(rho_b, -8, 8, sector=s)) / (2 * dt)
        flux = j.value(s, 8) - j.value(s, -8)
        assert abs(dbox + flux) < 1e-6


# -- Noether current -------------------------------------------------------------


def test_noether_random_state():
    rep = make_rep()
    rng = random.Random(SEED + 4)
    psi = rand_fn(rng, rep.grid)
    assert check_noether(psi) < 1e-10


@pytest.mark.parametrize("q", [2.0, 1.5, 3.0])
def test_noether_fails_on_a_derivative_that_breaks_the_scale_rule(
        q, monkeypatch):
    rep = build_representation(LatticeGrid(QContext(q), -12, 12))
    H = Hamiltonian(rep)
    psi = rand_fn(random.Random(SEED + 4), rep.grid)
    packet = evolve(EvolutionState(eigen_packet(rep, H, random.Random(SEED))),
                    H, 1e-3, steps=5).psi
    assert check_noether(psi) < 1e-10
    assert check_noether(packet) < 1e-10
    nabla_fn = LatticeFn.nabla_fn
    # a gradient off by a multiple of itself and of psi: its current is
    # still the current's own bracket, so only the scale rule can see it
    monkeypatch.setattr(LatticeFn, "nabla_fn", lambda f: nabla_fn(f).scale(
        1.7) + f.scale(0.3))
    assert check_noether(psi) > 1e-3
    assert check_noether(packet) > 1e-10


def test_noether_zero_state():
    rep = make_rep()
    assert check_noether(LatticeFn(rep.grid)) == 0.0


def test_noether_propagates_nan():
    rep = make_rep()
    psi = rand_fn(random.Random(SEED + 4), rep.grid)
    psi.sector(-1)[12] = np.nan
    assert np.isnan(check_noether(psi))


def test_noether_nan_at_any_compared_site_is_nan():
    # every site strictly inside the window enters a current form
    rep = build_representation(LatticeGrid(D2, -8, 8))
    psi = rand_fn(random.Random(SEED + 6), rep.grid)
    for s in rep.grid.sectors:
        for n in range(rep.grid.n_min + 1, rep.grid.n_max):
            bad = psi.copy()
            bad.sector(s)[rep.grid.index(n)] = np.nan
            assert np.isnan(check_noether(bad)), (s, n)


def test_noether_alpha_scaling():
    rep = make_rep()
    rng = random.Random(SEED + 5)
    psi = rand_fn(rng, rep.grid)
    doubled = noether_current(psi, 2.0)
    twice = noether_current(psi, 1.0).scale(2.0)
    assert (doubled - twice).max_abs_interior() < 1e-13
    assert check_noether(psi, alpha=2.0) < 1e-10


# -- energy form and Hamiltonian guards --------------------------------------------


def test_energy_form_compact_state():
    rep = make_rep()
    rng = random.Random(SEED + 6)
    psi = rand_fn(rng, rep.grid, lo=-6, hi=6)
    assert energy_form_residual(psi) < 1e-10


def test_potential_forms_and_guard():
    rep = make_rep()
    x = rep.grid.points
    H = Hamiltonian(rep, potential=0.1 * x * x)
    for s in rep.grid.sectors:
        assert np.max(np.abs(H.matrices[s] - H.matrices[s].conj().T)) == 0.0
    vec = {s: np.full(rep.grid.size, 0.25) for s in rep.grid.sectors}
    Hv = Hamiltonian(rep, potential=vec)
    psi, _ = stationary_state(rep, "C", "2n+1", 0)
    s1 = evolve(EvolutionState(psi), Hv, 0.3, steps=2)
    assert abs(s1.norm() - EvolutionState(psi).norm()) < 1e-10
    bad = {s: np.full(rep.grid.size, 0.1 + 0.2j) for s in rep.grid.sectors}
    with pytest.raises(NonHermitianHamiltonian):
        Hamiltonian(rep, potential=bad)


# -- the evolve battery on a config -------------------------------------------------


def test_experiment_json_and_csv():
    rows, used, extra = run_battery("evolve", {
        "q": "2.0", "mass": 1.0, "window": [-12, 12], "dt": 0.05,
        "steps": 4, "potential": {"[1, 0]": 0.01},
        "initial": {"family": "C", "label": "2n+1", "n": 0, "sector": 1},
    })
    checks = {r["check"]: r for r in rows}
    assert checks["norm-drift"]["residual"] < 1e-10
    assert used["dt"] == 0.05 and used["steps"] == 4
    [(name, text)] = extra
    assert name == "history.csv"
    lines = text.strip().splitlines()
    assert lines[0] == "t,sigma,n,rho,j"
    times = list(dict.fromkeys(float(line.split(",")[0])
                               for line in lines[1:]))
    assert times[0] == 0.05 and len(times) == 4
    assert abs(times[-1] - 0.2) < 1e-12
    assert all(len(row.split(",")) == 5 for row in lines[1:])


def _csv_writer_history(state):
    """history_to_csv through csv.writer, one row per valid site."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["t", "sigma", "n", "rho", "j"])
    for t, rho, j in state.history:
        lo, hi = j.valid_window()
        for k, s in enumerate(j.grid.sectors):
            for n in range(lo, hi + 1):
                i = n - j.grid.n_min
                w.writerow([repr(float(t)), s, n, repr(rho.data.real[k, i].item()),
                            repr(j.data.real[k, i].item())])
    return buf.getvalue()


def test_history_csv_matches_csv_writer():
    grid = LatticeGrid(D2, -8, 8)
    specials = [-0.0, math.nan, math.inf, -math.inf, 1e16, 1e-5, 5e-324,
                -5e-324, 0.1, -2.5]
    rng = random.Random(SEED)
    history = []
    for t in (0.0, 0.05, 1e-5, 7.0):
        rows = [np.array([[rng.choice(specials) for _ in range(grid.size)]
                          for _ in grid.sectors], dtype=complex)
                for _ in range(2)]
        # j's boundary layer: only its valid sites are written
        history.append((t, LatticeFn(grid, rows[0]),
                        LatticeFn(grid, rows[1], pad_lo=1, pad_hi=1)))
    state = EvolutionState(rand_fn(rng, grid), 0.35, history)
    text = history_to_csv(state)
    assert text == _csv_writer_history(state)
    assert text.count("\r\n") == 1 + 4 * 2 * (grid.size - 2)
    assert history_to_csv(EvolutionState(state.psi)) == "t,sigma,n,rho,j\r\n"


# -- what the benchmark reads ---------------------------------------------------------


def test_benchmark_contract():
    rep = make_rep()
    H = Hamiltonian(rep)
    n = rep.grid.size
    for s in rep.grid.sectors:
        evals, evecs = H.eig(s)
        assert evals.shape == (n,) and evecs.shape == (n, n)
        assert H.matrices[s].shape == (n, n)
    psi, e = stationary_state(rep, "C", "2n+1", 0)
    c = rep.coeffs(psi)[1]
    r = H.matrices[1] @ c - e * c
    rows = rep.interior(2)
    assert np.max(np.abs(r[rows])) / np.max(np.abs(e * c[rows])) < 1e-6
    assert rep.lattice_fn(rep.coeffs(psi)).grid == rep.grid
    # the views are keyed by sector, not by row: the state lives on +1 only
    assert np.any(c) and not np.any(rep.coeffs(psi)[-1])
    assert np.array_equal(c, rep.coords(psi)[rep.grid.row(1)])
    assert np.array_equal(H.matrices[1], H.stencil.dense(1))
    assert H.mass == 1.0 and rep.sf is not None
    # the traced run walks the attributes of both objects, after it has
    # read H.matrices
    assert {"grid", "sf"} <= set(vars(rep))
    assert {"rep", "mass", "matrices"} <= set(vars(H))
