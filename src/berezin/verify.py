"""Deterministic verification battery over the whole calculus.

Each check pins one published identity at the truncation sized for it; the
incoming config contributes lambda and the tolerance knobs, while M, L, G are
fixed per check so that every row measures the identity rather than an
under-resolved grid; the Moyal rows are transforms.moyal_residual itself.
All randomness flows from one seeded generator, so two runs with the same
config and seed produce byte-identical residuals.  Each row also carries its
wall time, the time since the previous row was added (the first row's counts
from the start of the run), so a row whose computation the next row shares
carries that computation's time.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .core import (ModelConfig, PhaseGrid, HermiteState, OperatorMatrix,
                   basis_state, identity_operator, rank_one)
from .heisenberg import HeisenbergElement, PhasePoint
from .oracle import (coherent_overlap_exact, gauss_hermite_matrix_element,
                     oracle_double_sum_ft, oracle_matrix_element)
from .schroedinger import RepresentationContext, coherent_state, gaussian_vector
from .symbols import (build_symbol_map, covariance_residual, covariant_symbol,
                      hs_identity_residual, onb_expansion_check, reconstruct,
                      trace_identity_residual)
from .transforms import OrbitGridFunction, fourier_orbit, moyal_residual


@dataclass
class CheckResult:
    name: str
    value: float
    threshold: float
    op: str          # "<": value must stay below; ">": value must exceed
    passed: bool
    detail: str = ""
    elapsed_s: float = 0.0  # wall time since the previous row was added


@dataclass
class VerificationReport:
    lam: float
    seed: int
    checks: list
    elapsed_seconds: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def residual_summary(self) -> dict:
        return {c.name: c.value for c in self.checks}

    def elapsed_summary(self) -> dict:
        """Per-check wall time in seconds, keyed like residual_summary."""
        return {c.name: c.elapsed_s for c in self.checks}

    def failures(self) -> list:
        return [c.name for c in self.checks if not c.passed]

    def table(self) -> str:
        lines = ["%-26s %13s    %-8s %7s %s" % ("check", "value", "bound", "s",
                                                  "status")]
        for c in self.checks:
            lines.append("%-26s %13.6e  %s %-8.1e %7.4f %s" %
                         (c.name, c.value, c.op, c.threshold, c.elapsed_s,
                          "PASS" if c.passed else "FAIL"))
        lines.append("total: %d checks, %d failed, %.1f s" %
                     (len(self.checks), len(self.failures()),
                      self.elapsed_seconds))
        return "\n".join(lines)


def _random_state(rng: np.random.Generator, dim: int) -> HermiteState:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return HermiteState(coeffs=v / np.linalg.norm(v))


def _random_operator(rng: np.random.Generator, dim: int,
                     psd: bool = False, hermitian: bool = False) -> OperatorMatrix:
    B = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    if psd:
        B = B.conj().T @ B
    elif hermitian:
        B = (B + B.conj().T) / 2.0
    B = B / np.linalg.norm(B)
    return OperatorMatrix(entries=B, hermitian=psd or hermitian)


def _grid_points(rng: np.random.Generator, grid, box: float, count: int) -> list:
    ok = np.where(np.abs(grid.axis) <= box)[0]
    ia = rng.choice(ok, size=count)
    ib = rng.choice(ok, size=count)
    return [PhasePoint(grid.axis[i], grid.axis[j]) for i, j in zip(ia, ib)]


def run_verification(cfg: ModelConfig, seed: int = 0) -> VerificationReport:
    if cfg.n != 1:
        raise ValueError("the verification battery is defined for n = 1")
    t0 = time.perf_counter()
    lam = cfg.lam
    rng = np.random.default_rng(seed)
    checks = []
    last = t0

    def add(name, value, threshold, op="<", detail=""):
        nonlocal last
        now = time.perf_counter()
        ok = value < threshold if op == "<" else value > threshold
        checks.append(CheckResult(name=name, value=float(value),
                                  threshold=float(threshold), op=op,
                                  passed=bool(ok), detail=detail,
                                  elapsed_s=now - last))
        last = now

    def make_ctx(M, G):
        return RepresentationContext(ModelConfig(
            lam=lam, M=M, G=G, tol_identity=cfg.tol_identity,
            tol_quadrature=cfg.tol_quadrature))

    ctx16 = make_ctx(16, 128)
    ctx8 = make_ctx(8, 128)

    # Moyal orthogonality of e0..e5 against the vacuum window, both sides.
    vac16 = gaussian_vector(ctx16.cfg)
    amb_res, wig_res = moyal_residual(
        ctx16, [basis_state(16, j) for j in range(6)], [vac16] * 6)
    add("moyal_ambiguity", amb_res, 1e-6, detail="pairs from e0..e5, window phi")
    add("moyal_wigner", wig_res, 1e-6, detail="same pairs through the Wigner side")

    # Trace identity on random operators (relative to trace norm) and on the
    # vacuum projector, where both sides equal 1.
    worst = 0.0
    for _ in range(20):
        A = _random_operator(rng, 8)
        tr_norm = np.linalg.svd(A.entries, compute_uv=False).sum()
        worst = max(worst, trace_identity_residual(ctx8, A) / tr_norm)
    add("trace_random", worst, 1e-6, detail="20 seeded 8x8, relative to trace norm")
    vac8 = gaussian_vector(ctx8.cfg)
    proj = rank_one(vac8, vac8)
    proj_res = max(trace_identity_residual(ctx8, proj),
                   abs(float(np.trace(proj.entries).real) - 1.0))
    add("trace_projector", proj_res, 1e-8, detail="both sides equal 1")

    # Hilbert-Schmidt identity on 6x6 operators over a 64x64 grid.
    ctx6 = make_ctx(6, 64)
    worst = 0.0
    for _ in range(10):
        A = _random_operator(rng, 6)
        worst = max(worst, hs_identity_residual(ctx6, A))
    add("hs_identity", worst, 1e-5, detail="10 seeded 6x6, unit HS norm")

    # Positivity of the covariant symbol on PSD operators.
    min_re, max_im = np.inf, 0.0
    for _ in range(50):
        A = _random_operator(rng, 8, psd=True)
        vals = covariant_symbol(ctx8, A).values
        min_re = min(min_re, float(vals.real.min()))
        max_im = max(max_im, float(np.abs(vals.imag).max()))
    add("positivity_min_re", min_re, -1e-10, op=">",
        detail="50 seeded PSD 8x8, min over the grid")
    add("positivity_imag", max_im, 1e-10, detail="same set, imaginary part")

    # Integral reproducing formula against the direct matrix action.
    pts = _grid_points(rng, ctx8.grid, ctx8.cfg.L / 4, 10)
    worst = 0.0
    for _ in range(10):
        A = _random_operator(rng, 8)
        f = _random_state(rng, 8)
        for x in pts:
            direct = complex(np.vdot(coherent_state(ctx8, x).coeffs,
                                     A.entries @ f.coeffs))
            worst = max(worst, abs(reconstruct(ctx8, A, f, x) - direct))
    add("reproducing", worst, 1e-6, detail="10 operators x 10 grid points")

    # ONB expansion of the full symbol: exact in the truncation.
    ops = [_random_operator(rng, 8), _random_operator(rng, 8),
           identity_operator(8), rank_one(_random_state(rng, 8), vac8)]
    pairs = list(zip(_grid_points(rng, ctx8.grid, ctx8.cfg.L / 4, 20),
                     _grid_points(rng, ctx8.grid, ctx8.cfg.L / 4, 20)))
    worst = 0.0
    for A in ops:
        for x, y in pairs:
            worst = max(worst, onb_expansion_check(ctx8, A, x, y))
    add("onb_expansion", worst, 1e-10, detail="4 operators x 20 point pairs")

    # Covariance under grid-commensurate displacements and a central element.
    h = ctx16.grid.h
    disps = [HeisenbergElement([h], [0.0]), HeisenbergElement([0.0], [h]),
             HeisenbergElement([h], [h]), HeisenbergElement([0.0], [0.0], 0.7)]
    low = np.zeros((16, 16), dtype=complex)
    low[:6, :6] = _random_operator(rng, 6, hermitian=True).entries
    targets = [rank_one(vac16, vac16), OperatorMatrix(low, hermitian=True)]
    worst = 0.0
    for A in targets:
        for g in disps:
            worst = max(worst, covariance_residual(ctx16, A, g))
    add("covariance", worst, 1e-6,
        detail="single grid steps + central element")

    # Injectivity certificate: smallest singular value across M = 1..4,
    # and the closed-form value at M = 1.
    sigmas = [float(build_symbol_map(make_ctx(M, 128))[-1]) for M in (1, 2, 3, 4)]
    sig_all, sig_m1 = min(sigmas), sigmas[0]
    add("injectivity_sigma_min", sig_all, 1e-4, op=">",
        detail="min over M in 1..4")
    add("injectivity_sigma_m1", sig_m1, 1e-4, op=">",
        detail="the M=1 singular value itself")
    add("injectivity_m1_exact", abs(sig_m1 - np.sqrt(0.5)), 1e-6,
        detail="closed Gaussian integral sqrt(1/2)")

    # Coherent overlap |(phi | phi_x)| against the closed form, then the same
    # closed form against two independent position-space oracles.
    r = 3.0 / np.sqrt(lam)
    axv = np.linspace(-r, r, 5)
    w_main, w_rie, w_gh = 0.0, 0.0, 0.0
    for a in axv:
        for b in axv:
            exact = coherent_overlap_exact(lam, a, b)
            phi_x = coherent_state(ctx16, PhasePoint(a, b))
            w_main = max(w_main, abs(abs(vac16.inner(phi_x)) - exact))
            g = HeisenbergElement([a], [b])
            rie = oracle_matrix_element(ctx16.cfg, g, 0, 0)
            w_rie = max(w_rie, abs(abs(rie) - exact))
            gh = gauss_hermite_matrix_element(ctx16.cfg, g, 0, 0)
            w_gh = max(w_gh, abs(abs(gh) - exact))
    add("overlap_main", w_main, 1e-8, detail="25 points, |x| <= 3/sqrt(lam)")
    add("overlap_riemann", w_rie, 1e-8, detail="Riemann-sum oracle")
    add("overlap_gauss_hermite", w_gh, 1e-8, detail="Gauss-Hermite oracle")

    # Norm preservation of the coherent family inside the safe radius
    # (euclidean |x| <= 2/sqrt(lam), where the M=16 tail sits near 1e-9).
    worst = 0.0
    r2 = 2.0 / np.sqrt(lam)
    d2 = r2 / np.sqrt(2.0)
    for a, b in [(0.0, 0.0), (r2, 0.0), (-r2, 0.0), (0.0, r2), (0.0, -r2),
                 (d2, d2), (-d2, d2), (d2, -d2), (-d2, -d2)]:
        worst = max(worst,
                    abs(coherent_state(ctx16, PhasePoint(a, b)).norm() - 1.0))
    add("coherent_norm", worst, cfg.tol_identity,
        detail="9 points, |x| <= 2/sqrt(lam)")

    # Orbit Fourier transform: exact unitarity and agreement with the literal
    # double sum on a 16x16 grid (no config validation; unitarity is exact
    # for every grid shape).
    g16 = PhaseGrid(n=1, lam=lam, L=8.0 / np.sqrt(lam), G=16)
    par, ds = 0.0, 0.0
    for _ in range(20):
        v = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        a = OrbitGridFunction(grid=g16, values=v / np.linalg.norm(v))
        F = fourier_orbit(a)
        par = max(par, abs(F.norm() ** 2 - a.norm() ** 2) / a.norm() ** 2)
    add("fourier_parseval", par, 1e-8, detail="20 random orbit functions, G=16")
    for _ in range(3):
        v = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        a = OrbitGridFunction(grid=g16, values=v)
        fast = fourier_orbit(a).reshape()
        slow = oracle_double_sum_ft(a.reshape(), a.xi_axis, g16.axis,
                                    a.orbit_density, sign=-1)
        ds = max(ds, float(np.abs(fast - slow).max()))
    add("fourier_double_sum", ds, 1e-10, detail="FFT path vs literal sum, 16x16")

    return VerificationReport(lam=lam, seed=seed, checks=checks,
                              elapsed_seconds=time.perf_counter() - t0)
