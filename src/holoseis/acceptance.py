"""Acceptance suite: one callable per criterion, runnable via the selftest CLI.

Each criterion builds its own desk-scale fixture with frozen seeds, asserts
the documented tolerance, and reports one pass/fail line.  The same functions
back tests/test_acceptance.py, so `pytest` and `holoseis selftest` exercise
identical code paths.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import greens, holography, inversion, medium, stochastic
from .errors import UsageError
from .stochastic import hs_inner, hs_norm

SOLAR_C = 350.0 / 696000.0  # sound speed in solar radii per second
OMEGA_3MHZ = 2.0 * np.pi * 3.0e-3


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    runtime_s: float


# ---------------------------------------------------------------------------
# Shared fixtures
# ---------------------------------------------------------------------------
def _small_grid() -> greens.Grid:
    return greens.square_grid(0.6, 0.5, 7.5, 1.0, n_receivers=16)


def _nonuniform_state(grid):
    freq = medium.FrequencyContext(omega=2 * np.pi / 0.5)
    params = medium.uniform_medium(grid, c=1.0, rho=1.0, gamma=0.3)
    pts = grid.interior_nodes
    bump = np.exp(-np.sum((pts - [0.1, -0.1]) ** 2, axis=1) / (2 * 0.15**2))
    params.S = 0.5 + 0.3 * bump
    params.c = params.c * (1 + 0.05 * bump)
    params.gamma = params.gamma * (1 + 0.2 * bump)
    psi = np.exp(-np.sum(pts**2, axis=1) / (2 * 0.2**2))
    params.u = medium.stream_function_flow(grid, psi, params.rho, amplitude=0.02)
    return params, freq


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------
def criterion_1_adjoint() -> Tuple[bool, str]:
    """Adjoint consistency of the covariance derivative, 20 pairs/quantity."""
    grid = _small_grid()
    params, freq = _nonuniform_state(grid)
    model = holography.build_model(
        params, freq, quantities=("S", "c", "gamma", "rho", "u")
    )
    rng = np.random.default_rng(202)
    w_int = grid.interior_weights
    w_rec = grid.receiver_weights
    worst = 0.0
    for q in ("S", "c", "gamma", "rho", "u"):
        for _ in range(20):
            if q == "u":
                dq = rng.standard_normal((grid.n_interior, 2))
                wq = w_int[:, None]
            else:
                dq = rng.standard_normal(grid.n_interior)
                wq = w_int
            d = rng.standard_normal((grid.n_receivers,) * 2) + 1j * rng.standard_normal(
                (grid.n_receivers,) * 2
            )
            dc = holography.apply_derivative(model, {q: dq})
            lhs = hs_inner(dc, d, w_rec).real
            dual = holography.apply_adjoint(model, d, (q,))[q]
            rhs = float(np.sum(dq * dual * wq))
            denom = np.sqrt(np.sum(dq**2 * wq)) * np.sqrt(hs_inner(d, d, w_rec).real)
            worst = max(worst, abs(lhs - rhs) / denom)
    return worst <= 1e-10, f"max relative adjoint mismatch {worst:.3e} (tol 1e-10)"


def criterion_2_derivative_order() -> Tuple[bool, str]:
    """Taylor remainder slope 2.0 +- 0.2 per quantity against the forward map.

    The source-strength map is exactly linear, so its remainder sits at the
    floating-point floor; that is reported as an exact pass rather than a
    meaningless slope fit.
    """
    grid = _small_grid()
    freq = medium.FrequencyContext(omega=2 * np.pi / 0.5)
    base = medium.uniform_medium(grid, c=1.0, rho=1.0, gamma=0.3)
    base.S = np.full(grid.n_interior, 0.5)
    g0 = greens.assemble_green(grid, base.reference_wavenumber(freq))
    model = holography.build_model(
        base, freq, quantities=("S", "c", "gamma", "rho", "u"), g_ref=g0
    )
    c_base = stochastic.forward_covariance(model).matrix
    pts = grid.interior_nodes
    bump = np.exp(-np.sum((pts - [0.12, -0.05]) ** 2, axis=1) / (2 * 0.12**2))
    bump2 = np.exp(-np.sum((pts + [0.2, 0.0]) ** 2, axis=1) / (2 * 0.1**2))
    w_rec = grid.receiver_weights
    hs = [1e-1, 1e-2, 1e-3]
    details = []
    passed = True
    for q in ("S", "c", "gamma", "rho", "u"):
        if q == "u":
            psi = np.exp(-np.sum(pts**2, axis=1) / (2 * 0.18**2))
            dq = medium.stream_function_flow(grid, psi, base.rho, amplitude=1.0)
        elif q == "gamma":
            dq = 0.5 * bump + 0.2 * bump2
        else:
            dq = 0.5 * bump - 0.2 * bump2
        dc = holography.apply_derivative(model, {q: dq})
        rems = []
        for h in hs:
            p = base.copy()
            if q == "u":
                p.u = h * dq
            else:
                setattr(p, q, getattr(p, q) + h * dq)
            m_h = holography.build_model(p, freq, quantities=("S",), g_ref=g0)
            c_h = stochastic.forward_covariance(m_h).matrix
            rems.append(hs_norm(c_h - c_base - h * dc, w_rec))
        floor = 1e-12 * hs_norm(c_base, w_rec)
        if max(rems) <= floor:
            details.append(f"{q}: exactly linear (remainder <= {floor:.1e})")
            continue
        slope = float(np.polyfit(np.log(hs), np.log(rems), 1)[0])
        ok = 1.8 <= slope <= 2.2
        passed &= ok
        details.append(f"{q}: slope {slope:.3f}")
    return passed, "; ".join(details)


def criterion_3_diag_trace() -> Tuple[bool, str]:
    """Discrete Diag/trace identity, exact to 1e-12 on 50 random PSD products.

    Each product is a hologram Diag(H^H W Corr W H), by the production path.
    """
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        w_rec, w_int = 0.5 + rng.random(11), 0.5 + rng.random(40)
        rows = rng.standard_normal((11, 40)) + 1j * rng.standard_normal((11, 40))
        f = rng.standard_normal((7, 11)) + 1j * rng.standard_normal((7, 11))
        r = stochastic.RealizationSet(fields=f, seed=0, omega=1.0)
        holo = holography.backprop_realizations(holography.PropagatorPair(rows), r, w_rec)
        lhs = float(np.sum(holo.real * w_int))
        wcw = w_rec[:, None] * (f.T @ f.conj() / 7) * w_rec[None, :]
        rhs = float(np.trace(rows.conj().T @ wcw @ rows * w_int[:, None]).real)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
    return worst <= 1e-12, f"max trace deviation {worst:.3e} (tol 1e-12)"


def criterion_4_resolvent_update() -> Tuple[bool, str]:
    """Support-restricted resolvent update vs direct dense solve (<= 300 nodes)."""
    grid = greens.square_grid(0.5, 0.5, 7.5, 1.0, n_receivers=12)
    assert grid.n_interior <= 300
    k = 2 * np.pi / 0.5 * np.sqrt(1 + 0.1j)
    g0 = greens.assemble_green(grid, k)
    pts = grid.interior_nodes
    dv = np.zeros(grid.n_interior, dtype=complex)
    mask = (np.abs(pts[:, 0] - 0.1) < 0.18) & (np.abs(pts[:, 1] + 0.05) < 0.18)
    dv[mask] = 2.5 + 0.8j
    no_flow = np.zeros((grid.n_interior, grid.dim))
    delta = greens.DeltaOperator(dv=dv, dA=no_flow)
    gq = greens.update_green(g0, delta)
    m = delta.operator_matrix(grid).toarray()
    k0 = g0.kernel  # each read of a reference's kernel gathers it afresh
    lhs = np.eye(grid.n_nodes) + (k0 * grid.weights[None, :]) @ m
    direct = np.linalg.solve(lhs, k0)
    rel = float(np.max(np.abs(gq.kernel - direct)) / np.max(np.abs(direct)))
    zero = greens.DeltaOperator(dv=np.zeros(grid.n_interior, dtype=complex), dA=no_flow)
    bit_equal = np.array_equal(greens.update_green(g0, zero).kernel, k0)
    ok = rel <= 1e-8 and bit_equal
    return ok, f"dense-solve deviation {rel:.3e} (tol 1e-8); zero-delta bit-equal: {bit_equal}"


def criterion_5_monte_carlo_convergence() -> Tuple[bool, str]:
    """Empirical-vs-model covariance error halves when N quadruples (+-30%)."""
    grid = _small_grid()
    freq = medium.FrequencyContext(omega=2 * np.pi / 0.5)
    params = medium.uniform_medium(grid, c=1.0, rho=1.0, gamma=0.3)
    pts = grid.interior_nodes
    blk = (np.abs(pts[:, 0] - 0.1) < 0.15) & (np.abs(pts[:, 1] + 0.1) < 0.15)
    params.S = np.where(blk, 1.0, 0.0)
    model = holography.build_model(params, freq)
    cov = stochastic.forward_covariance(model)
    n_c = hs_norm(cov.matrix, cov.weights)

    def rms_err(n, reps=4):
        acc = 0.0
        for s in range(reps):
            r = stochastic.sample_wavefields(model, n, seed=1000 + s)
            corr = stochastic.empirical_corr(r, grid.receiver_weights)
            acc += hs_norm(corr.matrix - cov.matrix, cov.weights) ** 2
        return np.sqrt(acc / reps) / n_c

    e = {n: rms_err(n) for n in (256, 1024, 4096)}
    r1, r2 = e[256] / e[1024], e[1024] / e[4096]
    ok = 1.4 <= r1 <= 2.6 and 1.4 <= r2 <= 2.6
    return ok, (
        f"errors {e[256]:.4f}/{e[1024]:.4f}/{e[4096]:.4f}, "
        f"ratios {r1:.2f}, {r2:.2f} (target 2.0 +- 30%)"
    )


def criterion_6_isserlis() -> Tuple[bool, str]:
    """Sampled covariance of correlation entries matches C13 C42 within 5%."""
    grid = greens.square_grid(0.6, 0.5, 7.5, 1.0, n_receivers=4)
    arc = 0.09 * np.arange(4)
    grid.nodes[grid.receiver_idx] = np.column_stack([np.cos(arc), np.sin(arc)])
    freq = medium.FrequencyContext(omega=2 * np.pi / 0.5)
    params = medium.uniform_medium(grid, c=1.0, rho=1.0, gamma=0.1)
    pts = grid.interior_nodes
    params.S = np.exp(-np.sum((pts - [0.15, -0.1]) ** 2, axis=1) / (2 * 0.25**2))
    model = holography.build_model(params, freq)
    cov = stochastic.forward_covariance(model)
    n = 100_000
    r = stochastic.sample_wavefields(model, n, seed=77)
    f = r.fields
    t = f[:, :, None] * f.conj()[:, None, :]
    tm = t.mean(axis=0)
    sampled = np.einsum("nab,ncd->abcd", t, t.conj()) / n
    sampled -= tm[:, :, None, None] * tm.conj()[None, None, :, :]
    pred = cov.matrix[:, None, :, None] * cov.matrix.conj()[None, :, None, :]
    rel = float(np.max(np.abs(sampled - pred) / np.abs(pred)))
    return rel < 0.05, f"max entrywise relative error {rel:.4f} (tol 0.05)"


def criterion_7_imaginary_identity() -> Tuple[bool, str]:
    """Forward covariance vs Pi/(4 i omega)(G - conj G) under grid refinement."""
    from scipy.special import hankel1

    lam = 0.4
    omega = 2 * np.pi / lam
    gamma = 0.25 * omega

    def run(ppw):
        grid = greens.disk_grid(
            1.0, lam, ppw, receiver_radius=0.45, n_receivers=20, receiver_phase=0.013
        )
        params = medium.uniform_medium(grid, c=1.0, rho=1.0, gamma=gamma)
        freq = medium.FrequencyContext(omega=omega, power=2.0)
        params.S = stochastic.source_cov_from_damping(params, freq)
        model = holography.build_model(params, freq)
        k_ref = model.hp.k_ref
        cov = stochastic.forward_covariance(model)
        rec = grid.receiver_nodes
        diff = rec[:, None, :] - rec[None, :, :]
        r = np.sqrt(np.sum(diff**2, axis=-1))
        np.fill_diagonal(r, 1.0)
        g_rec = 0.25j * hankel1(0, k_ref * r)
        np.fill_diagonal(
            g_rec,
            [
                greens.green_diagonal_2d(k_ref, np.sqrt(w / np.pi))
                for w in grid.receiver_weights
            ],
        )
        ref = freq.power / (4j * omega) * (g_rec - g_rec.conj())
        return hs_norm(cov.matrix - ref, grid.receiver_weights) / hs_norm(
            ref, grid.receiver_weights
        )

    coarse, fine = run(7.5), run(10.6)
    ok = fine <= 0.05 and fine < coarse
    return ok, f"relative HS error {coarse:.4f} -> {fine:.4f} under refinement (tol 0.05)"


def _kernel_fwhm(grid, row, t_idx):
    nx, ny = grid.interior_shape
    ix, iy = divmod(int(t_idx), ny)
    shaped = np.abs(row).reshape(nx, ny)
    h = grid.spacing
    widths = []
    for line, ic in ((shaped[:, iy], ix), (shaped[ix, :], iy)):
        half = line[ic] / 2.0
        li = ic
        while li > 0 and line[li - 1] > half:
            li -= 1
        ri = ic
        while ri < len(line) - 1 and line[ri + 1] > half:
            ri += 1
        lfrac = (
            (line[li] - half) / (line[li] - line[li - 1])
            if li > 0 and line[li] != line[li - 1]
            else 0.0
        )
        rfrac = (
            (line[ri] - half) / (line[ri] - line[ri + 1])
            if ri < len(line) - 1 and line[ri] != line[ri + 1]
            else 0.0
        )
        widths.append((ri - li + lfrac + rfrac) * h)
    return float(np.mean(widths))


def criterion_8_kernel_width() -> Tuple[bool, str]:
    """Band-averaged source/sound-speed kernel FWHM within [0.3, 0.9] lambda."""
    lam_mid = SOLAR_C / 3.0e-3
    grid = greens.square_grid(
        0.5, SOLAR_C / 3.25e-3, 7.2, receiver_radius=1.0, n_receivers=40
    )
    freqs = medium.frequency_band(12, 2 * np.pi * 2.75e-3, 2 * np.pi * 3.25e-3)
    params = medium.uniform_medium(grid, c=SOLAR_C, rho=1.0, gamma=0.05 * OMEGA_3MHZ)
    params.S = np.full(grid.n_interior, 1.0)
    pts = grid.interior_nodes
    targets_xy = [(0.0, 0.0), (0.15, 0.0), (0.3, 0.0), (0.45, 0.0)]
    targets = [
        int(np.argmin(np.sum((pts - np.asarray(t)) ** 2, axis=1))) for t in targets_xy
    ]
    acc = {("S", "S"): 0.0, ("c", "c"): 0.0}
    weight = holography.NoiseWeight.identity(grid.receiver_weights)
    for fr in freqs:
        model = holography.build_model(params, fr, quantities=("S", "c"))
        for pair in acc:
            kern = holography.sensitivity_kernel(model, pair, weight, targets=targets)
            acc[pair] = acc[pair] + kern
    details = []
    passed = True
    for pair, total in acc.items():
        total = total / len(freqs)
        ratios = [
            _kernel_fwhm(grid, total[row], t_idx) / lam_mid
            for row, t_idx in enumerate(targets)
        ]
        ok = all(0.3 <= r <= 0.9 for r in ratios)
        passed &= ok
        details.append(f"{pair[0]}-kernel FWHM/lambda {['%.2f' % r for r in ratios]}")
    return passed, "; ".join(details) + " (target [0.3, 0.9])"


def criterion_9_source_inversion() -> Tuple[bool, str]:
    """Scaled source inversion: peak within lambda/2, support error <= 0.3."""
    lam = SOLAR_C / 3.0e-3
    grid = greens.square_grid(0.5, lam, 7.2, receiver_radius=1.0, n_receivers=40)
    freq = medium.FrequencyContext(omega=OMEGA_3MHZ)
    pts = grid.interior_nodes
    blk = (np.abs(pts[:, 0] - 0.15) <= 0.1) & (np.abs(pts[:, 1] + 0.1) <= 0.1)
    truth = medium.uniform_medium(grid, c=SOLAR_C, rho=1.0, gamma=0.1 * OMEGA_3MHZ)
    truth.S = np.where(blk, 1.0, 0.0)
    r = stochastic.sample_wavefields(holography.build_model(truth, freq), 2000, seed=31)
    corr = stochastic.empirical_corr(r, grid.receiver_weights)
    q0 = truth.copy()
    q0.S = np.zeros(grid.n_interior)
    config = inversion.InversionConfig(
        grid=grid,
        q0=q0,
        quantities=("S",),
        beta=10.0 * corr.trace() / corr.n,
        max_outer=90,
        max_cg=50,
        tau=1.05,
    )
    data = [inversion.FrequencyData(freq=freq, corr=corr, n_realizations=2000)]
    q_fin, diag = inversion.run_irgnm(config, data, truth=truth)
    peak = pts[int(np.argmax(q_fin.S))]
    support_pts = pts[blk]
    dist = float(np.min(np.linalg.norm(support_pts - peak[None, :], axis=1)))
    err = float(
        np.linalg.norm((q_fin.S - truth.S)[blk]) / np.linalg.norm(truth.S[blk])
    )
    ok = dist <= lam / 2 and err <= 0.3
    return ok, (
        f"peak-to-support distance {dist:.3f} (lambda/2 = {lam / 2:.3f}), "
        f"support L2 error {err:.3f} (tol 0.3), stop: {diag['stopped_by']} "
        f"after {len(diag['iterations'])} iterations"
    )


def criterion_10_sound_speed_irgnm() -> Tuple[bool, str]:
    """Scaled sound-speed IRGNM: monotone weighted misfit to the discrepancy
    stop, final error below half the initial, localization within lambda/2.

    The block perturbation is mollified at lambda/6: a sharp indicator keeps
    over 40% of its L2 content beyond the lambda/2 resolution limit at this
    data volume, which no method could recover; the mollified block carries
    the same quantitative-recovery content without that unreachable part.
    """
    from scipy import ndimage

    c0 = 1.0
    lam_min = 0.2
    om_hi = 2 * np.pi / lam_min * c0
    grid = greens.square_grid(
        0.5, lam_min / 1.02, 7.1, receiver_radius=1.0, n_receivers=60
    )
    pts = grid.interior_nodes
    blk = (
        (np.abs(pts[:, 0] - 0.15) <= 0.22) & (np.abs(pts[:, 1] + 0.1) <= 0.22)
    ).astype(float)
    nx, ny = grid.interior_shape
    blk_smooth = ndimage.gaussian_filter(
        blk.reshape(nx, ny), (lam_min / 6) / grid.spacing, mode="constant"
    ).ravel()
    freqs = medium.frequency_band(12, 0.65 * om_hi, om_hi)
    s_src = np.exp(
        -np.sum((pts - [-0.25, 0.2]) ** 2, axis=1) / (2 * 0.10**2)
    ) + np.exp(-np.sum((pts - [0.3, -0.35]) ** 2, axis=1) / (2 * 0.10**2))
    truth = medium.uniform_medium(grid, c=c0, rho=1.0, gamma=0.01 * om_hi)
    truth.c = c0 * (1.0 + 0.4 * blk_smooth)
    truth.S = s_src.copy()
    q0 = medium.uniform_medium(grid, c=c0, rho=1.0, gamma=0.01 * om_hi)
    q0.S = s_src.copy()
    data = []
    for i, fr in enumerate(freqs):
        m_true = holography.build_model(truth, fr, quantities=("c",))
        r = stochastic.sample_wavefields(m_true, 200, seed=500 + i)
        corr = stochastic.empirical_corr(r, grid.receiver_weights)
        data.append(inversion.FrequencyData(freq=fr, corr=corr, n_realizations=200))
    m0 = holography.build_model(q0, freqs[0], quantities=("c",))
    beta = stochastic.forward_covariance(m0).trace() / grid.n_receivers
    config = inversion.InversionConfig(
        grid=grid,
        q0=q0,
        quantities=("c",),
        beta=beta,
        max_outer=45,
        max_cg=50,
        tau=1.05,
        smoothing_width=lam_min / 8,
        alpha0_scale=0.1,
    )
    q_fin, diag = inversion.run_irgnm(config, data, truth=truth)
    mis = [e["misfit"] for e in diag["iterations"]]
    monotone = all(b <= a * (1 + 1e-9) for a, b in zip(mis, mis[1:]))
    err0 = np.linalg.norm(q0.c - truth.c)
    err = float(np.linalg.norm(q_fin.c - truth.c) / err0)
    peak = pts[int(np.argmax(q_fin.c - c0))]
    support_pts = pts[blk > 0.5]
    dist = float(np.min(np.linalg.norm(support_pts - peak[None, :], axis=1)))
    lam_mid = lam_min / 0.825
    ok = (
        monotone
        and diag["stopped_by"] == "discrepancy"
        and err < 0.5
        and dist <= lam_mid / 2
    )
    return ok, (
        f"stop: {diag['stopped_by']} after {len(diag['iterations'])} iterations, "
        f"misfit monotone: {monotone}, parameter error {err:.3f} of initial "
        f"(tol 0.5), peak-to-support {dist:.3f} (lambda/2 = {lam_mid / 2:.3f})"
    )


def criterion_11_constrained_flow() -> Tuple[bool, str]:
    """Mass-conserving flow reconstruction, stopped after one iteration."""
    c0 = 1.0
    lam0 = 0.25
    om0 = 2 * np.pi / lam0 * c0
    grid = greens.square_grid(
        0.5, lam0 / 1.05, 7.2, receiver_radius=1.0, n_receivers=40
    )
    pts = grid.interior_nodes
    freqs = medium.frequency_band(12, om0 * 0.95, om0 * 1.05)
    s_src = np.exp(-np.sum(pts**2, axis=1) / (2 * 0.12**2)) + 0.02
    truth = medium.uniform_medium(grid, c=c0, rho=1.0, gamma=0.02 * om0)
    truth.S = s_src.copy()
    psi = np.exp(-np.sum((pts - [0.15, -0.05]) ** 2, axis=1) / (2 * 0.15**2))
    u_t = medium.stream_function_flow(grid, psi, truth.rho, amplitude=1.0)
    u_t *= 0.08 * c0 / np.max(np.abs(u_t))
    truth.u = medium.project_divergence_free(grid, truth.rho, u_t)
    q0 = medium.uniform_medium(grid, c=c0, rho=1.0, gamma=0.02 * om0)
    q0.S = s_src.copy()
    data = []
    for i, fr in enumerate(freqs):
        m_true = holography.build_model(truth, fr, quantities=("u",))
        r = stochastic.sample_wavefields(m_true, 1000, seed=800 + i)
        corr = stochastic.empirical_corr(r, grid.receiver_weights)
        data.append(inversion.FrequencyData(freq=fr, corr=corr, n_realizations=1000))
    m0 = holography.build_model(q0, freqs[0], quantities=("u",))
    config = inversion.InversionConfig(
        grid=grid,
        q0=q0,
        quantities=("u",),
        beta=stochastic.forward_covariance(m0).trace() / grid.n_receivers,
        alpha0_scale=0.1,
        max_outer=1,  # small flows: stop after one iteration
        tau=0.0,
    )
    q_fin, diag = inversion.run_irgnm(config, data, truth=truth)
    du = q_fin.u
    info = diag["iterations"][0]
    cos = float(
        np.sum(du * truth.u) / (np.linalg.norm(du) * np.linalg.norm(truth.u))
    )
    div_ok = info["divergence_residual"] <= 1e-8 * max(info["update_norm"], 1e-300)
    ok = div_ok and cos >= 0.6
    return ok, (
        f"one-step flow update: divergence residual "
        f"{info['divergence_residual']:.2e} "
        f"(tol 1e-8 |du| = {1e-8 * info['update_norm']:.2e}), "
        f"cosine similarity {cos:.3f} (tol 0.6)"
    )


def criterion_12_lindsey_braun() -> Tuple[bool, str]:
    """Lindsey-Braun maps localize at zero damping but are non-quantitative."""
    lam = SOLAR_C / 3.0e-3
    grid = greens.square_grid(0.6, lam, 7.5, receiver_radius=1.0, n_receivers=60)
    pts = grid.interior_nodes
    blk = (np.abs(pts[:, 0] - 0.35) <= 0.10) & (np.abs(pts[:, 1] - 0.35) <= 0.10)
    s_true = np.where(blk, 1.0, 0.0)
    freq = medium.FrequencyContext(omega=OMEGA_3MHZ)
    ratios = {}
    dist0 = None
    for grel in (0.0, 0.1, 0.5):
        params = medium.uniform_medium(
            grid, c=SOLAR_C, rho=1.0, gamma=0.5 * grel * OMEGA_3MHZ
        )
        params.S = s_true.copy()
        model = holography.build_model(params, freq)
        r = stochastic.sample_wavefields(model, 400, seed=21)
        pair = holography.lindsey_braun_pair(model)
        holo = holography.backprop_realizations(pair, r, grid.receiver_weights)
        vals = np.abs(holo)
        peak = pts[int(np.argmax(vals))]
        ratios[grel] = float(vals.max() / s_true.max())
        if grel == 0.0:
            support_pts = pts[blk]
            dist0 = float(np.min(np.linalg.norm(support_pts - peak[None, :], axis=1)))
    drift = max(ratios.values()) / min(ratios.values())
    ok = dist0 <= lam / 2 and drift >= 2.0
    return ok, (
        f"zero-damping peak-to-support {dist0:.3f} (lambda/2 = {lam / 2:.3f}), "
        f"amplitude-ratio drift across damping {drift:.1e} (>= 2 required)"
    )


CRITERIA: Dict[int, Tuple[str, Callable[[], Tuple[bool, str]]]] = {
    1: ("adjoint consistency", criterion_1_adjoint),
    2: ("derivative Taylor order", criterion_2_derivative_order),
    3: ("Diag/trace identity", criterion_3_diag_trace),
    4: ("resolvent Green update", criterion_4_resolvent_update),
    5: ("Monte Carlo covariance convergence", criterion_5_monte_carlo_convergence),
    6: ("Isserlis fourth moments", criterion_6_isserlis),
    7: ("imaginary-part identity", criterion_7_imaginary_identity),
    8: ("kernel width near lambda/2", criterion_8_kernel_width),
    9: ("source-strength inversion", criterion_9_source_inversion),
    10: ("sound-speed IRGNM", criterion_10_sound_speed_irgnm),
    11: ("constrained flow step", criterion_11_constrained_flow),
    12: ("Lindsey-Braun non-quantitativity", criterion_12_lindsey_braun),
}

LONG_RUNNING = (9, 10, 11)


def run_all(
    only: Optional[Sequence[int]] = None, fast: bool = False
) -> List[CriterionResult]:
    """Run the acceptance criteria, printing one pass/fail line each."""
    numbers = sorted(only) if only else sorted(CRITERIA)
    if fast:
        numbers = [n for n in numbers if n not in LONG_RUNNING]
    unknown = sorted(set(numbers) - set(CRITERIA))
    if unknown:
        raise UsageError(f"unknown criteria {unknown}; known are {sorted(CRITERIA)}")
    results = []
    for n in numbers:
        name, func = CRITERIA[n]
        start = time.time()
        try:
            passed, details = func()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, details = False, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.time() - start
        results.append(CriterionResult(n, name, passed, details, elapsed))
        status = "PASS" if passed else "FAIL"
        print(f"[{status}] criterion {n:2d} ({name}): {details} [{elapsed:.1f}s]")
    return results
