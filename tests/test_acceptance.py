"""Acceptance battery: every headline identity at its stated tolerance.

Runs the full verification engine once per lambda in {0.5, 1, 4} (n = 1,
M <= 16, G = 128, seed 0) and asserts each criterion across all three runs,
printing one PASS/FAIL line per criterion.  Run with -s to see the lines;
they also appear in captured output on failure.
"""
from __future__ import annotations

import math
import time

import pytest

from berezin import default_config, run_verification

LAMBDAS = (0.5, 1.0, 4.0)
TIME_BUDGET_SECONDS = 60.0


@pytest.fixture(scope="module")
def reports():
    out = {}
    for lam in LAMBDAS:
        t0 = time.perf_counter()
        out[lam] = run_verification(default_config(lam=lam), seed=0)
        elapsed = time.perf_counter() - t0
        assert elapsed < TIME_BUDGET_SECONDS, "lam=%g took %.1fs" % (lam, elapsed)
    return out


def _values(reports, name):
    vals = {}
    for lam, rep in reports.items():
        match = [c for c in rep.checks if c.name == name]
        assert match, "check %r missing from engine output" % name
        vals[lam] = match[0].value
    return vals


def _emit(num, text, ok):
    print("[criterion %02d] %s -- %s" % (num, text, "PASS" if ok else "FAIL"))
    assert ok, text


def test_criterion_01_moyal_identity(reports):
    worst = max(max(_values(reports, "moyal_ambiguity").values()),
                max(_values(reports, "moyal_wigner").values()))
    _emit(1, "Moyal identity, both transform sides, basis pairs: "
          "max residual %.3e < 1e-06" % worst, worst < 1e-6)


def test_criterion_02_trace_identity(reports):
    rand = max(_values(reports, "trace_random").values())
    proj = max(_values(reports, "trace_projector").values())
    ok = rand < 1e-6 and proj < 1e-8
    _emit(2, "trace identity: random ops %.3e < 1e-06 (rel), "
          "vacuum projector %.3e < 1e-08" % (rand, proj), ok)


def test_criterion_03_hilbert_schmidt(reports):
    worst = max(_values(reports, "hs_identity").values())
    _emit(3, "Hilbert-Schmidt identity, random 6x6, 64x64 grid: "
          "max relative residual %.3e < 1e-05" % worst, worst < 1e-5)


def test_criterion_04_positivity(reports):
    min_re = min(_values(reports, "positivity_min_re").values())
    max_im = max(_values(reports, "positivity_imag").values())
    ok = min_re >= -1e-10 and max_im <= 1e-10
    _emit(4, "PSD symbols: min Re %.3e >= -1e-10, max |Im| %.3e <= 1e-10"
          % (min_re, max_im), ok)


def test_criterion_05_reproducing(reports):
    worst = max(_values(reports, "reproducing").values())
    _emit(5, "reproducing property, 10 ops x 10 grid points: "
          "max residual %.3e < 1e-06" % worst, worst < 1e-6)


def test_criterion_06_onb_expansion(reports):
    worst = max(_values(reports, "onb_expansion").values())
    _emit(6, "basis expansion of the two-point symbol: "
          "max residual %.3e < 1e-10" % worst, worst < 1e-10)


def test_criterion_07_covariance(reports):
    worst = max(_values(reports, "covariance").values())
    _emit(7, "symbol covariance under grid-commensurate displacements: "
          "max residual %.3e < 1e-06" % worst, worst < 1e-6)


def test_criterion_08_injectivity(reports):
    sig = min(_values(reports, "injectivity_sigma_min").values())
    m1 = max(abs(v - math.sqrt(0.5))
             for v in _values(reports, "injectivity_sigma_m1").values())
    ok = sig > 1e-4 and m1 < 1e-6
    _emit(8, "symbol-map injectivity: sigma_min %.3e > 1e-04 (M=1..4), "
          "M=1 value off closed form by %.3e < 1e-06" % (sig, m1), ok)


def test_criterion_09_coherent_overlap(reports):
    worst = max(max(_values(reports, "overlap_main").values()),
                max(_values(reports, "overlap_riemann").values()),
                max(_values(reports, "overlap_gauss_hermite").values()))
    _emit(9, "coherent overlap vs Gaussian law, 25 points, "
          "coefficient route + 2 independent quadrature oracles: "
          "max deviation %.3e < 1e-08" % worst, worst < 1e-8)


def test_criterion_10_orbit_fourier(reports):
    par = max(_values(reports, "fourier_parseval").values())
    dbl = max(_values(reports, "fourier_double_sum").values())
    ok = par < 1e-8 and dbl < 1e-10
    _emit(10, "orbit Fourier transform: Parseval %.3e < 1e-08 (rel), "
          "FFT vs literal double sum %.3e < 1e-10 (16x16)" % (par, dbl), ok)


def test_full_battery_green(reports):
    for lam, rep in reports.items():
        bad = rep.failures()
        assert not bad, "lam=%g failed checks: %s" % (
            lam, ", ".join(c.name for c in bad))


def test_tol_identity_sets_only_the_coherent_norm_bound(reports):
    # the other checks carry fixed bounds; tol_identity moves none of them
    base = reports[1.0]
    other = run_verification(default_config(lam=1.0, tol_identity=3e-7),
                             seed=0)
    assert [c.name for c in other.checks] == [c.name for c in base.checks]
    assert other.residual_summary() == base.residual_summary()
    changed = {c.name: (b.threshold, c.threshold)
               for b, c in zip(base.checks, other.checks)
               if b.threshold != c.threshold}
    assert changed == {"coherent_norm": (1e-6, 3e-7)}
