"""Perturbation models, chi closed forms, and the Monte Carlo estimators."""

import io
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad

from twoptlab import (
    DominanceSample,
    Instance,
    OneStepSpec,
    chi_inverse_moment,
    chi_pdf,
    chi_square_tail,
    d_max_bound,
    make_origins,
    mc_ball_mass,
    mc_dominance,
    mc_line_closeness,
    one_step_sample,
    perturb,
)


# ---------------------------------------------------------------------------
# perturb / Instance


def test_perturb_sigma_zero_identity():
    origins = np.array([[0.1, 0.2], [0.3, 0.4], [0.8, 0.9]])
    inst = perturb(origins, 0.0, seed=7)
    assert np.array_equal(inst.points, origins)
    assert inst.sigma == 0.0 and inst.seed == 7 and inst.dim == 2


def test_perturb_deterministic():
    origins = make_origins("uniform", 20, 3, 11)
    a = perturb(origins, 0.5, seed=99)
    b = perturb(origins, 0.5, seed=99)
    assert np.array_equal(a.points, b.points)
    c = perturb(origins, 0.5, seed=100)
    assert not np.array_equal(a.points, c.points)


def test_perturb_noise_scales_linearly_with_sigma():
    # the noise block is drawn at unit scale, then multiplied by sigma; the
    # paired-seed ratio experiment relies on this being exact
    origins = np.zeros((50, 2))
    z1 = perturb(origins, 1.0, seed=3).points
    z2 = perturb(origins, 0.25, seed=3).points
    assert np.array_equal(z2, 0.25 * z1)


def test_perturb_rejects_negative_and_large_sigma():
    origins = np.zeros((3, 2))
    with pytest.raises(ValueError):
        perturb(origins, -0.1, seed=0)
    with pytest.raises(ValueError):
        perturb(origins, 1.5, seed=0)
    inst = perturb(origins, 1.5, seed=0, allow_large_sigma=True)
    assert inst.sigma == 1.5
    # the override carries over to the JSON it writes
    assert Instance.from_json(inst.to_json()).sigma == 1.5


@pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
def test_perturb_rejects_non_finite_sigma(sigma):
    for allow_large_sigma in (False, True):
        with pytest.raises(ValueError, match="sigma must be finite"):
            perturb(np.zeros((3, 2)), sigma, seed=0, allow_large_sigma=allow_large_sigma)


def test_perturb_displacement_variance():
    n, sigma = 100_000, 0.7
    inst = perturb(np.zeros((n, 2)), sigma, seed=1)
    disp = inst.points
    for axis in range(2):
        var = disp[:, axis].var()
        se = sigma**2 * math.sqrt(2.0 / n)  # SE of a chi-square mean
        assert abs(var - sigma**2) <= 3.0 * se


def test_perturb_coordinates_uncorrelated():
    inst = perturb(np.zeros((100_000, 2)), 1.0, seed=13)
    x, y = inst.points[:, 0], inst.points[:, 1]
    corr = np.corrcoef(x, y)[0, 1]
    assert abs(corr) <= 3.0 / math.sqrt(len(x))


def test_instance_json_round_trip_bit_exact():
    inst = perturb(make_origins("uniform", 9, 2, 5), 0.3, seed=5)
    text = inst.to_json()
    back = Instance.from_json(io.StringIO(text))
    assert np.array_equal(back.points, inst.points)
    assert np.array_equal(back.origins, inst.origins)
    assert back.sigma == inst.sigma and back.seed == inst.seed and back.dim == inst.dim


@pytest.mark.parametrize("text", [
    '{"dim": 2, "sigma": NaN, "seed": 1, "origins": [[0, 0], [0, 1]], "points": [[0, 0], [0, 1]]}',
    '{"dim": 2, "sigma": 0.0, "seed": 1, "origins": [[0, 0], [0, NaN]], "points": [[0, 0], [0, 1]]}',
    '{"dim": 2, "sigma": 0.0, "seed": 1, "origins": [[0, 0], [0, 1]], "points": [[0, 0], [Infinity, 1]]}',
], ids=["nan-sigma", "nan-origin", "inf-point"])
def test_instance_json_non_finite_rejected(text):
    # Python's json reads NaN / Infinity; an instance must not hold them
    with pytest.raises(ValueError):
        Instance.from_json(text)


def test_instance_json_missing_key_rejected():
    with pytest.raises(ValueError):
        Instance.from_json('{"dim": 2, "sigma": 0.0, "seed": 1, "origins": [[0,0],[0,1],[1,0]]}')


@pytest.mark.parametrize("edit", [
    {"seed": 3.9}, {"dim": 2.7}, {"seed": "3"}, {"dim": True}, {"sigma": None},
])
def test_instance_json_rejects_non_integral_dim_and_seed(edit):
    data = json.loads(perturb(make_origins("grid", 4, 2, 0), 0.1, 3).to_json())
    data.update(edit)
    with pytest.raises(ValueError, match=f"{next(iter(edit))!r} must be"):
        Instance.from_json(json.dumps(data))


def test_instance_json_accepts_integral_floats():
    inst = perturb(make_origins("grid", 4, 2, 0), 0.1, 3)
    data = json.loads(inst.to_json())
    data.update(seed=3.0, dim=2.0)
    again = Instance.from_json(json.dumps(data))
    assert (again.seed, again.dim) == (3, 2) and type(again.seed) is int
    assert np.array_equal(again.points, inst.points)


@pytest.mark.parametrize("text", ["5", "[1, 2]", '"abc"', "null"])
def test_instance_json_top_level_must_be_an_object(text):
    with pytest.raises(ValueError, match="must be an object"):
        Instance.from_json(text)


def test_instance_json_points_must_regenerate():
    data = json.loads(perturb(make_origins("uniform", 6, 2, 0), 0.1, 3).to_json())
    data["points"][2][1] += 1e-3
    with pytest.raises(ValueError, match="do not regenerate"):
        Instance.from_json(json.dumps(data))
    # a one-step sample stores origins == points at sigma 0, so it regenerates
    sample = one_step_sample(OneStepSpec(phi=4.0, dim=2, cells=np.zeros((1, 2))), 5, seed=2)
    assert np.array_equal(Instance.from_json(sample.to_json()).points, sample.points)


def test_instance_regeneration_invariant():
    inst = perturb(make_origins("grid", 10, 2, 0), 0.2, seed=77)
    again = perturb(inst.origins, inst.sigma, inst.seed)
    assert np.array_equal(again.points, inst.points)


# ---------------------------------------------------------------------------
# one-step model


def test_one_step_phi_one_is_uniform():
    spec = OneStepSpec(phi=1.0, dim=2, cells=[(0.0, 0.0)])
    inst = one_step_sample(spec, 100_000, seed=8)
    mean = inst.points.mean(axis=0)
    se = math.sqrt(1.0 / 12.0 / 100_000)
    assert np.all(np.abs(mean - 0.5) <= 3.0 * se)
    # product-uniform corner mass
    frac = np.mean((inst.points[:, 0] < 0.5) & (inst.points[:, 1] < 0.5))
    assert abs(frac - 0.25) <= 3.0 * math.sqrt(0.25 * 0.75 / 100_000)


def test_one_step_points_stay_in_their_cells():
    spec = OneStepSpec(phi=100.0, dim=2, cells=[(0.0, 0.0), (0.9, 0.9), (0.5, 0.1)])
    side = spec.side
    assert side == pytest.approx(0.1)
    inst = one_step_sample(spec, 50, seed=4)
    for i in range(50):
        lo = spec.cells[i % 3]
        assert np.all(inst.points[i] >= lo - 1e-12)
        assert np.all(inst.points[i] <= lo + side + 1e-12)
    # instance regeneration invariant holds with sigma=0, origins = points
    assert inst.sigma == 0.0
    assert np.array_equal(inst.origins, inst.points)


def test_one_step_rejects_escaping_subcube():
    with pytest.raises(ValueError):
        OneStepSpec(phi=4.0, dim=2, cells=[(0.8, 0.8)])  # side 0.5 leaves the cube
    with pytest.raises(ValueError):
        OneStepSpec(phi=0.5, dim=2, cells=[(0.0, 0.0)])


# ---------------------------------------------------------------------------
# make_origins


def test_make_origins_rules():
    g = make_origins("grid", 12, 2, 0)
    assert g.shape == (12, 2)
    assert g.min() == 0.0 and g.max() == 1.0
    s = make_origins("single-point", 5, 3, 0)
    assert np.array_equal(s, np.full((5, 3), 0.5))
    u1 = make_origins("uniform", 8, 2, 3)
    u2 = make_origins("uniform", 8, 2, 3)
    assert np.array_equal(u1, u2)
    with pytest.raises(ValueError):
        make_origins("hexagonal", 8, 2, 3)


def test_grid_origins_are_the_first_nodes_of_the_lattice():
    for dim in (1, 2, 3, 5):
        for n in (1, 2, 7, 8, 9, 30):
            k = 1
            while k**dim < n:
                k += 1
            axis = np.linspace(0.0, 1.0, k) if k > 1 else np.array([0.5])
            lattice = np.stack([m.ravel() for m in np.meshgrid(*[axis] * dim, indexing="ij")],
                               axis=1)
            got = make_origins("grid", n, dim, 0)
            assert got.flags.c_contiguous and np.array_equal(got, lattice[:n])


# ---------------------------------------------------------------------------
# d_max_bound


def test_d_max_bound_examples():
    assert d_max_bound(10, 0.0) == pytest.approx(2.0)
    assert d_max_bound(2, 1.0) == pytest.approx(2.0 * (math.sqrt(2.0 * math.log(2.0)) + 1.0))
    assert d_max_bound(2, 1.0) == pytest.approx(4.3548, abs=1e-4)
    assert d_max_bound(100, 0.6) > d_max_bound(100, 0.3)
    assert d_max_bound(200, 0.3) > d_max_bound(100, 0.3)
    with pytest.raises(ValueError):
        d_max_bound(1, 0.5)


# ---------------------------------------------------------------------------
# chi closed forms


def test_chi_pdf_zero_at_origin_for_d_ge_2():
    assert chi_pdf(0.0, 2, 1.0) == 0.0
    assert chi_pdf(0.0, 5, 0.3) == 0.0


def test_chi_pdf_rayleigh_point():
    assert chi_pdf(1.0, 2, 1.0) == pytest.approx(math.exp(-0.5), rel=1e-12)


def test_chi_pdf_negative_x_is_zero_and_bad_sigma_errors():
    assert chi_pdf(-1.0, 3, 1.0) == 0.0
    with pytest.raises(ValueError):
        chi_pdf(1.0, 2, 0.0)


def test_chi_pdf_integrates_to_one():
    for d, sigma in [(1, 1.0), (2, 1.0), (3, 0.5), (7, 2.0), (12, 0.1)]:
        total, _ = quad(lambda x: chi_pdf(x, d, sigma), 0.0, 20.0 * sigma, limit=200)
        assert abs(total - 1.0) <= 1e-8


def test_chi_pdf_matches_named_specializations():
    xs = np.linspace(0.01, 5.0, 57)
    for sigma in (0.5, 1.0, 2.0):
        half_normal = math.sqrt(2.0 / math.pi) / sigma * np.exp(-(xs / sigma) ** 2 / 2.0)
        rayleigh = xs / sigma**2 * np.exp(-(xs / sigma) ** 2 / 2.0)
        maxwell = math.sqrt(2.0 / math.pi) * xs**2 / sigma**3 * np.exp(-(xs / sigma) ** 2 / 2.0)
        assert np.allclose(chi_pdf(xs, 1, sigma), half_normal, rtol=1e-10)
        assert np.allclose(chi_pdf(xs, 2, sigma), rayleigh, rtol=1e-10)
        assert np.allclose(chi_pdf(xs, 3, sigma), maxwell, rtol=1e-10)


def test_chi_inverse_moment_examples():
    assert chi_inverse_moment(4, 2, 1.0) == pytest.approx(0.5, rel=1e-12)
    assert chi_inverse_moment(3, 1, 1.0) == pytest.approx(math.sqrt(2.0 / math.pi), rel=1e-12)
    assert chi_inverse_moment(4, 2, 2.0) == pytest.approx(0.125, rel=1e-12)
    with pytest.raises(ValueError):
        chi_inverse_moment(2, 2, 1.0)
    with pytest.raises(ValueError):
        chi_inverse_moment(3, 1, 0.0)


def test_chi_inverse_moment_against_quadrature():
    # independent oracle: numeric integral of x^-c against the chi density
    for d in range(2, 13):
        for c in (1, 2):
            if d <= c:
                continue
            closed = chi_inverse_moment(d, c, 1.0)
            numeric, _ = quad(lambda x: chi_pdf(x, d, 1.0) * x**-c, 0.0, 30.0, limit=300)
            assert abs(closed - numeric) / closed <= 1e-6


# ---------------------------------------------------------------------------
# Monte Carlo estimators (small sample counts here; the verify suites and the
# acceptance test run the full-size versions)


def test_mc_ball_mass_zero_radius():
    assert mc_ball_mass(2, 1.0, 0.0, samples=1000, seed=0) == 0.0


def test_mc_ball_mass_at_mean_closed_form():
    freq = mc_ball_mass(2, 1.0, 0.5, samples=200_000, seed=1)
    true = 1.0 - math.exp(-0.125)
    se = math.sqrt(true * (1.0 - true) / 200_000)
    assert abs(freq - true) <= 4.0 * se
    assert freq <= 0.25  # the stated bound (eps/sigma)^d
    assert freq <= (0.5 / 1.0) ** 2


def test_mc_ball_mass_offset_center_below_bound():
    freq = mc_ball_mass(3, 0.5, 0.2, samples=100_000, seed=2, center=(0.3, 0.0, 0.0))
    assert freq <= (0.2 / 0.5) ** 3 + 3.0 * math.sqrt(0.064 * (1 - 0.064) / 100_000)


def test_mc_line_closeness_zero_width():
    assert mc_line_closeness(2, 1.0, 0.0, samples=1000, seed=0) == 0.0


def test_mc_line_closeness_band_mass():
    freq = mc_line_closeness(2, 1.0, 0.1, samples=200_000, seed=3)
    true = math.erf(0.1 / math.sqrt(2.0))
    se = math.sqrt(true * (1.0 - true) / 200_000)
    assert abs(freq - true) <= 4.0 * se
    assert freq <= 0.1 + 3.0 * se


def test_mc_line_closeness_rejects_degenerate_line():
    with pytest.raises(ValueError):
        mc_line_closeness(2, 1.0, 0.1, samples=100, seed=0, a=(1.0, 1.0), b=(1.0, 1.0))


def test_mc_dominance_zero_mean_agreement():
    s = mc_dominance(2, 1.0, (0.0, 0.0), samples=100_000, seed=4)
    assert isinstance(s, DominanceSample)
    for q in np.percentile(s.a, [10, 30, 50, 70, 90]):
        gap = abs(s.cdf_a(q) - s.cdf_b(q))
        assert gap <= 3.0 * math.sqrt(2.0 * 0.25 / 100_000)


def test_mc_dominance_offset_mean_strict_at_median():
    s = mc_dominance(2, 1.0, (3.0, 0.0), samples=100_000, seed=5)
    med = float(np.median(s.a))
    # ||b|| stochastically dominates ||a||: its CDF sits strictly below
    assert s.cdf_b(med) < s.cdf_a(med) - 0.1
    assert s.cdf_b(-1.0) == 0.0 and s.cdf_a(-1.0) == 0.0


def test_chi_square_tail_examples():
    thr, bound = chi_square_tail(1, 1.0, 3.0)
    assert thr == pytest.approx(3.0 * math.sqrt(math.log(3.0)))
    assert thr == pytest.approx(3.1444, abs=1e-4)
    assert bound == pytest.approx(3.0**-2.9)
    assert bound == pytest.approx(0.0414, abs=1e-4)
    assert chi_square_tail(1, 1.0, 5.0)[1] < bound
    with pytest.raises(ValueError):
        chi_square_tail(1, 1.0, 2.9)


def test_chi_square_tail_empirical_exceedance():
    d, sigma, tt = 2, 1.0, 3.0
    thr, bound = chi_square_tail(d, sigma, tt)
    rng = np.random.default_rng(6)
    norms = np.linalg.norm(rng.standard_normal((200_000, d)), axis=1)
    exceed = float(np.mean(norms >= thr))
    true = math.exp(-(thr**2) / 2.0)
    assert exceed <= bound  # the bound is loose: 0.0017 << 0.0414
    assert abs(exceed - true) <= 4.0 * math.sqrt(true / 200_000)


@pytest.mark.parametrize("call", [
    lambda: mc_ball_mass(2, 1.0, 0.5, 0, 0),
    lambda: mc_line_closeness(2, 1.0, 0.5, 0, 0),
    lambda: mc_dominance(2, 1.0, None, 0, 0),
], ids=["ball", "line", "dominance"])
def test_mc_estimators_need_one_sample(call):
    with pytest.raises(ValueError, match="at least one sample"):
        call()


@pytest.mark.parametrize("call", [
    lambda: mc_ball_mass(2, 1.0, math.nan, 10, 0),
    lambda: mc_line_closeness(2, 1.0, math.nan, 10, 0),
    lambda: mc_ball_mass(2, math.nan, 1.0, 10, 0),
    lambda: mc_line_closeness(2, math.nan, 1.0, 10, 0),
    lambda: mc_dominance(2, math.nan, None, 10, 0),
    lambda: chi_pdf(1.0, 2, math.nan),
    lambda: chi_inverse_moment(2, 1.0, math.nan),
    lambda: chi_square_tail(2, math.nan, 4.0),
    lambda: chi_square_tail(2, 1.0, math.nan),
    lambda: d_max_bound(10, math.nan),
    lambda: OneStepSpec(phi=math.nan, dim=2, cells=np.zeros((1, 2))),
], ids=["ball-eps", "line-eps", "ball-sigma", "line-sigma", "dominance-sigma", "chi-pdf",
        "chi-moment", "chi-tail-sigma", "chi-tail-t", "d-max", "one-step-phi"])
def test_nan_arguments_raise(call):
    with pytest.raises(ValueError):
        call()
