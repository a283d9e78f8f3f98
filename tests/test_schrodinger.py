"""Matrix representation, evolution, continuity, Noether current."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest

from qcalc.batteries import eigen_packet, rand_lattice_fn as rand_fn
from qcalc.context import QContext
from qcalc.integration import definite_integral, norm as fn_norm
from qcalc.lattice import InsufficientPadding, LatticeFn, LatticeGrid
from qcalc.schrodinger import (
    EvolutionState,
    GridTooSmall,
    Hamiltonian,
    NonHermitianHamiltonian,
    boundary_flux,
    build_representation,
    check_noether,
    continuity_residual,
    density_current,
    energy_form_residual,
    evolve,
    experiment_from_json,
    free_evolve,
    history_to_csv,
    noether_current,
    stationary_state,
    stationary_states,
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
    i3 = rep.grid.index(3)
    assert rep.x[1][i3, i3] == 8.0
    assert rep.x[-1][i3, i3] == -8.0
    off = rep.x[1] - np.diag(np.diag(rep.x[1]))
    assert np.max(np.abs(off)) == 0.0


def test_shift_structure():
    rep = make_rep()
    g = rep.grid
    for s in g.sectors:
        for n in range(g.n_min, g.n_max):
            assert rep.lam_op[s][g.index(n + 1), g.index(n)] == 1.0
        assert np.array_equal(rep.lam_inv_op[s], rep.lam_op[s].T)
        prod = rep.lam_inv_op[s] @ rep.lam_op[s]
        # the top shift-out site is lost; all others return exactly
        assert np.max(np.abs(prod[:-1, :-1] - np.eye(g.size - 1))) == 0.0


def test_momentum_two_nonzeros_per_column():
    rep = make_rep()
    g = rep.grid
    for s in (1, -1):
        p = rep.p[s]
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
    for s in (1, -1):
        gap = np.max(np.abs(rep.p[s] - rep.p[s].conj().T))
        assert gap < 1e-9


def test_algebra_relation_interior():
    assert make_rep().relation_residual() < 1e-12


def test_adjoint_identity_nabla_L():
    # matrix adjoint of (nabla L^-1) equals -(nabla L) away from the cut
    assert make_rep().adjoint_residual() < 1e-12


def test_scale_map_matches_lattice_shift():
    rep = make_rep()
    rng = random.Random(SEED)
    f = rand_fn(rng, rep.grid)
    c = rep.coeffs(f)
    shifted = rep.coeffs(f.L_shift(1))
    for s in rep.grid.sectors:
        got = rep.L[s] @ c[s]
        assert np.max(np.abs(got[1:] - shifted[s][1:])) < 1e-12


# -- stationary states ---------------------------------------------------------


def test_stationary_energy_and_degeneracy():
    rep = make_rep()
    _, e = stationary_state(rep, "C", "2n+1", 0)
    assert abs(e - 0.5 * D2.inv_lam ** 2 * D2.q) < 1e-15
    for n in (-1, 0, 2):
        _, ec = stationary_state(rep, "C", "2n+1", n)
        _, es = stationary_state(rep, "S", "2n", n)
        assert ec == es
    pairs = stationary_states(rep, "C", "2n+1", n_range=range(-1, 2))
    assert [p[1] for p in pairs] == sorted(p[1] for p in pairs)
    with pytest.raises(ValueError):
        stationary_state(rep, "T", "2n", 0)


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
        assert np.array_equal(out.psi.values[s], psi.values[s])
    assert out.time == 0.0


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


def test_density_current_real():
    rep = make_rep()
    rng = random.Random(SEED + 1)
    psi = rand_fn(rng, rep.grid)
    rho, j = density_current(psi)
    for s in rep.grid.sectors:
        assert np.max(np.abs(rho.values[s].imag)) < 1e-12
        assert np.max(np.abs(j.values[s].imag)) < 1e-12
    assert np.min(rho.values[1].real) >= 0.0


def test_real_state_has_zero_current():
    rep = make_rep()
    psi, _ = stationary_state(rep, "C", "2n+1", 0)
    _, j = density_current(psi)
    assert j.max_abs_interior() == 0.0
    assert abs(boundary_flux(psi, 8)) < 1e-6


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


def test_noether_zero_state():
    rep = make_rep()
    assert check_noether(LatticeFn.zero(rep.grid)) == 0.0


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
    H = Hamiltonian(rep, potential=lambda x: 0.1 * x * x)
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


# -- experiment interface -----------------------------------------------------------


def test_experiment_json_and_csv():
    cfg = {
        "q": 2.0,
        "mass": 1.0,
        "window": [-12, 12],
        "dt": 0.05,
        "steps": 4,
        "potential": {"[1, 0]": 0.01},
        "initial": {"family": "C", "label": "2n+1", "n": 0, "sector": 1},
    }
    out = experiment_from_json(json.dumps(cfg))
    assert out["norm_drift"] < 1e-10
    assert abs(out["final"].time - 0.2) < 1e-12
    assert len(out["final"].history) == 4
    text = history_to_csv(out["final"])
    lines = text.strip().splitlines()
    assert lines[0] == "t,sigma,n,rho,j"
    first = lines[1].split(",")
    assert float(first[0]) == 0.05
    assert all(len(row.split(",")) == 5 for row in lines[1:])
