import math
from fractions import Fraction as F

import pytest

import wavetrig as wt
from wavetrig.design import DesignInput, SQRT2, _MIN_REL_WIDTH, c_omega_fits
from wavetrig.errors import ConfigurationError, DesignFailureError, InfeasibleDomainError
from wavetrig.grid import (
    C_OMEGA_SOURCES, Interval, Rectangle, build_grid, discrete_poincare_constant, poincare_constant,
)

ALPHAS = (0.25, 0.5, 1.0, 2.0, 4.0)
C_VALUES = (0.1, 0.3, 0.5, 1.0, 1.3)


# ----------------------------------------------------------- fraction oracle
#
# Independent re-execution of the pipeline in exact rational arithmetic.
# Every formula is rational in (alpha, C), so for rational inputs the oracle
# is exact and pins the float pipeline.

def oracle_pipeline(alpha: F, c: F, s0=F(1, 2), s1=F(1, 2), theta_margin=F(3, 2)):
    csq = c * c
    assert csq < 2
    if alpha < 2:
        g0 = s0 * (2 - csq) / (csq * max(alpha * alpha + alpha * c, 2 * (2 - alpha * alpha)))
        g1 = s1 * F(1, 2)
    else:
        g0 = s0 * (2 - csq) / (alpha * alpha * csq + alpha * csq * c)
        g1 = s1 * F(1)
    shrink = 0
    while True:
        lo = alpha * g0 * csq / (2 - csq * (1 + alpha * alpha * g0))
        hi = min(alpha * (1 - g1) / (2 + alpha * alpha * g1), 1 / c)
        if hi - lo > F(1, 10 ** 12) * max(hi, abs(lo)):
            break
        g0 /= 2
        g1 /= 2
        shrink += 1
        assert shrink < 60
    eps = (lo + hi) / 2
    nu0 = 2 * eps - alpha * g0 * csq - eps * csq * (1 + alpha * alpha * g0)
    nu1 = 2 * alpha - 2 * eps - alpha * (g1 + 1) - alpha * alpha * eps * g1
    beta = min(nu0, nu1)
    c1 = 1 - eps * c
    c2 = 1 + eps * c + eps * alpha * csq
    theta = theta_margin * beta / c2
    mu = alpha * (1 + eps) / (2 * (theta - beta / c2))
    return {
        "shrink": shrink, "gamma0": g0, "gamma1": g1, "lo": lo, "hi": hi, "eps": eps,
        "nu0": nu0, "nu1": nu1, "beta": beta, "c1": c1, "c2": c2, "theta": theta,
        "mu": mu, "K": (c2 / c1) * (1 + mu), "delta": beta / c2,
    }


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("c", C_VALUES)
def test_pipeline_matches_fraction_oracle(alpha, c):
    want = oracle_pipeline(F(alpha), F(c))
    cert = wt.build_certificate(DesignInput(alpha=alpha, c_omega=c))
    assert cert.diagnostics["shrink_iterations"] == want["shrink"]
    for name, key in (
        ("gamma0", "gamma0"), ("gamma1", "gamma1"), ("epsilon", "eps"),
        ("nu0", "nu0"), ("nu1", "nu1"), ("beta", "beta"), ("c1", "c1"),
        ("c2", "c2"), ("theta", "theta"), ("mu", "mu"),
        ("overshoot", "K"), ("decay_rate", "delta"),
    ):
        assert getattr(cert, name) == pytest.approx(float(want[key]), rel=1e-12), name


def test_oracle_example_alpha1_c1():
    # first try lands exactly on the degenerate point interval, one shrink
    # then gives gamma = 1/8 and the interval (1/7, 7/17)
    want = oracle_pipeline(F(1), F(1))
    assert want["shrink"] == 1
    assert want["gamma0"] == F(1, 8) and want["gamma1"] == F(1, 8)
    assert (want["lo"], want["hi"]) == (F(1, 7), F(7, 17))
    assert want["eps"] == F(33, 119)
    assert want["nu0"] == F(14, 119) and want["nu1"] == F(2, 7)
    cert = wt.build_certificate(DesignInput(alpha=1.0, c_omega=1.0))
    assert cert.gamma0 == pytest.approx(0.125, rel=1e-15)
    assert cert.epsilon == pytest.approx(float(F(33, 119)), rel=1e-13)
    assert cert.nu0 > 0 and cert.nu1 > 0 and cert.overshoot > 1 and cert.decay_rate > 0


# -------------------------------------------------------------- gamma bounds

def test_gamma_bounds_alpha1():
    g0, g1 = wt.gamma_bounds(1.0, 1.0)
    assert g0 == pytest.approx(0.5)
    assert g1 == 0.5


def test_gamma_bounds_alpha2():
    g0, g1 = wt.gamma_bounds(2.0, 1.0)
    assert g0 == pytest.approx(1 / 6)
    assert g1 == 1.0


def test_gamma_bounds_positive_on_grid():
    for alpha in ALPHAS:
        for c in C_VALUES:
            g0, g1 = wt.gamma_bounds(alpha, c)
            assert g0 > 0 and g1 > 0


@pytest.mark.parametrize("c", [SQRT2, 1.5, 2.0])
def test_gamma_bounds_refuses_large_domain(c):
    with pytest.raises(InfeasibleDomainError):
        wt.gamma_bounds(1.0, c)


# ---------------------------------------------------------- epsilon interval

def test_epsilon_interval_example():
    lo, hi = wt.epsilon_interval(1.0, 1.0, 0.1, 0.25)
    assert lo == pytest.approx(0.1 / 0.9, rel=1e-12)
    assert hi == pytest.approx(1 / 3, rel=1e-12)
    assert lo < hi


def test_epsilon_interval_boundary_case_is_empty():
    lo, hi = wt.epsilon_interval(1.0, 1.0, 0.25, 0.25)
    assert lo == pytest.approx(1 / 3, rel=1e-12)
    assert hi == pytest.approx(1 / 3, rel=1e-12)
    assert not hi - lo > _MIN_REL_WIDTH * hi


def test_epsilon_interval_zero_gamma0():
    lo, _ = wt.epsilon_interval(1.0, 1.0, 0.0, 0.25)
    assert lo == 0.0


def test_epsilon_interval_bad_denominator():
    # gamma0 large enough that 2 - C^2 (1 + alpha^2 gamma0) <= 0
    with pytest.raises(ConfigurationError):
        wt.epsilon_interval(1.0, 1.0, 2.0, 0.25)


# -------------------------------------------------------------------- margins

def test_margins_example():
    nu0, nu1, beta = wt.margins(1.0, 1.0, 0.1, 0.25, 0.2222)
    assert nu0 == pytest.approx(0.1, abs=1e-3)
    assert nu1 == pytest.approx(0.25, abs=1e-3)
    assert beta == min(nu0, nu1)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("c", C_VALUES)
def test_margin_boundary_identities(alpha, c):
    # nu0 vanishes at the interval's lower endpoint, nu1 at the uncapped
    # upper endpoint; this ties the interval formulas to the margins
    cert = wt.build_certificate(DesignInput(alpha=alpha, c_omega=c))
    lo, _ = wt.epsilon_interval(alpha, c, cert.gamma0, cert.gamma1)
    hi_uncapped = cert.diagnostics["interval_hi_uncapped"]
    nu0_lo, _, _ = wt.margins(alpha, c, cert.gamma0, cert.gamma1, lo)
    _, nu1_hi, _ = wt.margins(alpha, c, cert.gamma0, cert.gamma1, hi_uncapped)
    assert abs(nu0_lo) <= 1e-10 * max(1.0, 2 * lo, alpha * cert.gamma0 * c * c)
    assert abs(nu1_hi) <= 1e-10 * max(1.0, 2 * alpha)


# ------------------------------------------------------------ full pipeline

def test_certificate_feasible_on_grid_with_positive_rate():
    for alpha in ALPHAS:
        for c in C_VALUES:
            cert = wt.build_certificate(DesignInput(alpha=alpha, c_omega=c))
            assert cert.decay_rate > 0
            assert cert.overshoot > 1
            assert cert.nu0 > 0 and cert.nu1 > 0
            assert 0 < cert.c1 < 1 < cert.c2
            assert cert.epsilon < 1 / c


def test_certificate_refuses_infeasible_domain():
    with pytest.raises(InfeasibleDomainError):
        wt.build_certificate(DesignInput(alpha=1.0, c_omega=1.5))


def test_certificate_is_deterministic():
    a = wt.build_certificate(DesignInput(alpha=0.7, c_omega=0.4))
    b = wt.build_certificate(DesignInput(alpha=0.7, c_omega=0.4))
    assert a.to_dict() == b.to_dict()


def test_alpha1_first_try_is_always_degenerate():
    # for alpha = 1 with half-of-supremum weights the first-try interval is
    # exactly a point whenever the max() picks 2 (2 - alpha^2); the pipeline
    # must notice and shrink once
    for c in (0.2, 1 / math.pi, 0.9):
        cert = wt.build_certificate(DesignInput(alpha=1.0, c_omega=c))
        assert cert.diagnostics["shrink_iterations"] == 1


def test_design_input_validation():
    with pytest.raises(ConfigurationError):
        DesignInput(alpha=0.0, c_omega=0.5)
    with pytest.raises(ConfigurationError):
        DesignInput(alpha=1.0, c_omega=-1.0)
    with pytest.raises(ConfigurationError):
        DesignInput(alpha=1.0, c_omega=0.5, s_gamma0=1.0)
    with pytest.raises(ConfigurationError):
        DesignInput(alpha=1.0, c_omega=0.5, theta_margin=1.0)


def test_shrink_budget_exhaustion_reports_failure():
    # s fractions this close to 1 leave no room at alpha=1, C=1, and halving
    # both weights keeps the interval empty only for contrived inputs; force
    # failure instead via a monkeypatched budget of zero retries
    import wavetrig.design as design_mod

    old = design_mod._SHRINK_BUDGET
    design_mod._SHRINK_BUDGET = 1
    try:
        with pytest.raises(DesignFailureError):
            wt.build_certificate(DesignInput(alpha=1.0, c_omega=1.0))
    finally:
        design_mod._SHRINK_BUDGET = old


# ----------------------------------------------------- C_Omega against a grid

@pytest.mark.parametrize("source", C_OMEGA_SOURCES)
def test_c_omega_fits_its_grid_by_its_source(source):
    g, other = build_grid(Interval(1.0, 49)), build_grid(Interval(1.0, 51))
    rect = build_grid(Rectangle(1.0, 0.8, 15, 11))

    def cert(c):
        return wt.build_certificate(DesignInput(alpha=1.0, c_omega=c, c_omega_source=source))

    if source == "user":  # at least the discrete constant, which holds for every field on the grid
        c = discrete_poincare_constant(g)
        assert c_omega_fits(cert(c), g) and c_omega_fits(cert(1.5 * c), g)
        assert not c_omega_fits(cert(math.nextafter(c, 0.0)), g)
        assert not c_omega_fits(cert(0.999 * c), g)
        # a finer grid's lam1 is larger and its discrete constant smaller
        assert c_omega_fits(cert(c), other) and not c_omega_fits(cert(discrete_poincare_constant(other)), g)
        assert c_omega_fits(cert(0.5), rect) and not c_omega_fits(cert(0.19), rect)
        return
    # a grid-derived constant is its grid's to the last bit, neither larger nor smaller
    c = poincare_constant(g, source)
    assert c_omega_fits(cert(c), g)
    assert not c_omega_fits(cert(math.nextafter(c, 1.0)), g)
    assert not c_omega_fits(cert(math.nextafter(c, 0.0)), g)
    assert not c_omega_fits(cert(0.999 * c), g)
    assert c_omega_fits(cert(c), other) == (source != "discrete")  # the continuous ones ignore the nodes
    assert not c_omega_fits(cert(c), build_grid(Interval(0.5, 49)))
    if source == "wirtinger":  # defined on intervals only: no rectangle has it
        assert not c_omega_fits(cert(c), rect)
    else:
        assert c_omega_fits(cert(poincare_constant(rect, source)), rect)
        assert not c_omega_fits(cert(c), rect)


# -------------------------------------------------------------- vdot bound

def test_vdot_bound_rhs_values():
    cert = wt.build_certificate(DesignInput(alpha=1.0, c_omega=0.5))
    assert wt.vdot_bound_rhs(cert, 0.0, 0.0) == 0.0
    # at eta0 = 0 the bound is exactly -beta E
    assert wt.vdot_bound_rhs(cert, 1.0, 0.0) == pytest.approx(-cert.beta)
    # transient growth is allowed while the threshold floor is large
    assert wt.vdot_bound_rhs(cert, 0.0, 1.0) == pytest.approx(
        0.5 * cert.alpha * (1 + cert.alpha * cert.epsilon)
    )
    assert wt.vdot_bound_rhs(cert, 0.0, 1.0) > 0
