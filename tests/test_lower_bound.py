"""The layered adversarial instance: construction, tour, containers, ratio."""

import io
import json
import math

import numpy as np
import pytest

from twoptlab import (
    LayeredInstance,
    build_layered,
    build_long_tour,
    certify_two_optimality,
    check_containers,
    default_t,
    layered_params,
    mst_length,
    ratio_lower_bound,
    tour_length,
)
from twoptlab import layered
from twoptlab.layered import MAX_POINTS

import scan_oracle


# ---------------------------------------------------------------------------
# parameters


def test_params_p3_arithmetic():
    lp = layered_params(3, sigma=0.0, t=1)
    assert lp.P == 2187  # 3 * 3^6
    assert lp.a[1] == pytest.approx(1.0 / 27.0, rel=1e-15)
    assert lp.c[1] == pytest.approx(1.0 / 81.0, rel=1e-15)
    assert lp.beta == pytest.approx(lp.a[1] / 8.0, rel=1e-15)
    assert lp.padding == 3**6 - 1
    assert lp.n == 762


def test_params_layer_relations():
    lp = layered_params(3, sigma=0.0, t=3)
    for i in range(lp.t + 1):
        assert lp.a[i] == pytest.approx(3.0 * lp.c[i], rel=1e-12)
        # each layer spans exactly one third of the unit width
        assert (3 ** (2 * i)) * lp.a[i] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert lp.n == 3106


def test_params_validation():
    with pytest.raises(ValueError):
        layered_params(4, sigma=0.0, t=1)  # even p
    with pytest.raises(ValueError):
        layered_params(3, sigma=0.0, t=2)  # even t
    with pytest.raises(ValueError):
        layered_params(3, sigma=0.0, t=5)  # t > p
    with pytest.raises(ValueError):
        layered_params(3, sigma=0.5)  # default rule gives t < 1


def test_default_t_rule():
    assert default_t(3, 0.0) == 3
    assert default_t(3, 1.0 / 6561.0) == 3  # largest odd t with 3^(2t+1) <= 2187
    assert default_t(3, 1.0 / 100.0) == 1
    assert default_t(5, 1e-8) == 3  # t=5 needs sigma <= 1/(3*5^11) ~ 6.8e-9


def test_default_t_beta_inequality():
    # with the default coupling, the container radius stays >= sigma*p/8
    for p, sigma in [(3, 1e-4), (3, 1e-3), (5, 1e-6)]:
        lp = layered_params(p, sigma=sigma)
        assert lp.beta >= sigma * p / 8.0


# ---------------------------------------------------------------------------
# construction


def test_build_layer_cardinalities_and_shifts():
    li = build_layered(3, sigma=0.0, t=1)
    rows = li.part_rows()
    for layer in (0, 1):
        v1 = li.unperturbed().points[rows[("V1", layer)]]
        v2 = li.unperturbed().points[rows[("V2", layer)]]
        assert len(v1) == 3 ** (2 * layer) + 1
        assert len(v2) == len(v1)
        # V2 is V1 shifted right by exactly 2/3
        assert np.allclose(v2 - v1, [2.0 / 3.0, 0.0], atol=1e-15)
    v3 = li.unperturbed().points[rows[("V3", 1)]]
    v1_top = li.unperturbed().points[rows[("V1", 1)]]
    assert np.allclose(v3 - v1_top, [1.0 / 3.0, 0.0], atol=1e-15)
    pad = li.unperturbed().points[rows[("pad", 1)]]
    assert len(pad) == 3**6 - 1
    # padding coincides bit-for-bit with the central layer-t point of V3
    center = v3[len(v3) // 2]
    assert np.all(pad == center)


@pytest.mark.parametrize("t", [1, 3])
@pytest.mark.parametrize("sigma", [0.0, 1e-6, 3e-6, 1e-4])
def test_build_matches_the_point_by_point_reference(t, sigma):
    li = build_layered(3, sigma, t)
    ref = scan_oracle.build_layered(3, sigma, t)
    assert li.origins.tobytes() == ref.origins.tobytes()
    assert li.origins.shape == ref.origins.shape == (li.params.n, 2)
    assert li.labels == ref.labels
    rows, ref_rows = li.part_rows(), scan_oracle.part_rows(ref)
    assert list(rows) == list(ref_rows)
    for key, row in ref_rows.items():
        assert rows[key].dtype == row.dtype and np.array_equal(rows[key], row)
    assert li.to_json() == ref.to_json()


def test_build_origins_inside_unit_square():
    for t in (1, 3):
        li = build_layered(3, sigma=0.0, t=t)
        pts = li.unperturbed().points
        assert pts.min() >= 0.0 and pts.max() <= 1.0


def test_build_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_layered(2, sigma=0.0, t=1)
    with pytest.raises(ValueError):
        build_layered(3, sigma=0.0, t=4)


def test_default_t_does_not_overflow_for_large_p():
    # 101 ** 203 is beyond the float range; the rule compares exact rationals
    for call in (default_t, layered_params, build_layered):
        with pytest.raises(ValueError, match="too large for p=101"):
            call(101, 1e-4)
    assert default_t(101, 1e-300) == 73  # 3e-300 * 101 ** 147 <= 1 < 3e-300 * 101 ** 151


def test_build_refuses_constructions_over_the_size_budget():
    assert layered_params(3, 0.0, 3).n <= MAX_POINTS < layered_params(5, 0.0, 1).n
    with pytest.raises(ValueError, match="points"):
        build_layered(5, sigma=1e-8)


# ---------------------------------------------------------------------------
# designated tour


def test_long_tour_rejects_out_of_range_path_eps():
    li = build_layered(3, sigma=0.0, t=1)
    for eps in (-1.0, 0.0, math.nan):
        with pytest.raises(ValueError, match="eps"):
            build_long_tour(li, path_eps=eps)


def test_long_tour_is_a_permutation():
    li = build_layered(3, sigma=0.0, t=1)
    tour = build_long_tour(li)
    assert sorted(tour.order) == list(range(li.n))


def test_long_tour_unperturbed_length_t1():
    li = build_layered(3, sigma=0.0, t=1)
    tour = build_long_tour(li)
    length = tour_length(tour.order, li.unperturbed(), "l2")
    # two full horizontal crossings alone contribute 4/3
    assert length >= 4.0 / 3.0
    # frozen value: computed once from the construction, pinned here
    assert length == pytest.approx(20.0 / 9.0, rel=1e-12)


def test_long_tour_certifies_unperturbed_t1_and_t3():
    for t in (1, 3):
        li = build_layered(3, sigma=0.0, t=t)
        tour = build_long_tour(li)
        v = certify_two_optimality(li.unperturbed().points, tour, "l2", 1e-15)
        assert v is None, f"t={t}: violation {v}"


def test_long_tour_certifies_perturbed_seeds():
    li = build_layered(3, sigma=1e-4, t=1)
    passed = 0
    for seed in range(5):
        inst = li.perturbed(seed)
        ok, _worst = check_containers(li, inst)
        if not ok:
            continue
        passed += 1
        tour = build_long_tour(li, inst)
        assert certify_two_optimality(inst.points, tour, "l2", 1e-12) is None
    assert passed >= 4


# ---------------------------------------------------------------------------
# containers


def test_containers_sigma_zero():
    li = build_layered(3, sigma=0.0, t=1)
    ok, worst = check_containers(li, li.unperturbed())
    assert ok and worst == 0.0


def test_containers_flag_displaced_point():
    li = build_layered(3, sigma=0.0, t=1)
    inst = li.unperturbed()
    beta = li.params.beta
    moved = inst.points.copy()
    moved[5] = moved[5] + np.array([2.0 * beta, 0.0])
    bad = type(inst)(dim=2, sigma=0.0, seed=0, origins=inst.origins, points=moved)
    ok, worst = check_containers(li, bad)
    assert not ok
    assert worst == pytest.approx(2.0, rel=1e-9)  # reported as offset / beta


def test_containers_pass_rate_small_sigma():
    # beta/sigma ~ 46: a failure is a >46-sigma event per coordinate pair
    li = build_layered(3, sigma=1e-4, t=1)
    results = [check_containers(li, li.perturbed(s))[0] for s in range(10)]
    assert sum(results) == 10


# ---------------------------------------------------------------------------
# ratio lower bound


def test_ratio_lower_bound_frozen_values():
    li1 = build_layered(3, sigma=0.0, t=1)
    li3 = build_layered(3, sigma=0.0, t=3)
    r1 = ratio_lower_bound(li1)
    r3 = ratio_lower_bound(li3)
    assert r1 == pytest.approx(0.76923, abs=1e-4)
    assert r3 == pytest.approx(0.93486, abs=1e-4)
    assert r3 > r1


def test_ratio_lower_bound_is_conservative():
    # the denominator 2*MST dominates the true optimum, so the reported
    # value understates the real 2OPT/TSP ratio
    li = build_layered(3, sigma=0.0, t=1)
    tour = build_long_tour(li)
    inst = li.unperturbed()
    length = tour_length(tour.order, inst, "l2")
    assert ratio_lower_bound(li) == pytest.approx(length / (2.0 * mst_length(inst, "l2")), rel=1e-12)
    assert ratio_lower_bound(li, inst, tour) == ratio_lower_bound(li)


def test_ratio_lower_bound_computes_only_the_ratio(monkeypatch):
    # the ratio needs the designated tour's length and 2 MST; the container
    # check and the certifier belong to the lb row alone
    li = build_layered(3, sigma=1e-4, t=1)
    inst = li.perturbed(0)
    want = layered._certificate(li, inst)[0]["ratio_lb"]

    def refuse(*args, **kwargs):
        raise AssertionError("ratio_lower_bound ran a check it does not report")

    for name in ("check_containers", "certify_two_optimality"):
        monkeypatch.setattr(layered, name, refuse)
    assert ratio_lower_bound(li, inst) == want


# ---------------------------------------------------------------------------
# serialization


def test_layered_json_round_trip():
    li = build_layered(3, sigma=1e-4, t=1)
    inst = li.perturbed(7)
    text = li.to_json(inst)
    li2, inst2 = LayeredInstance.from_json(io.StringIO(text))
    assert li2.params.p == 3 and li2.params.t == 1
    assert li2.params.beta == li.params.beta
    assert np.array_equal(inst2.points, inst.points)
    assert np.array_equal(li2.unperturbed().points, li.unperturbed().points)
    assert li2.labels == li.labels


def _swap_first_and_last_labels(data):
    data["labels"][0], data["labels"][-1] = data["labels"][-1], data["labels"][0]


def _move_one_origin(data):
    data["origins"][7][0] += 1e-3
    data["points"][7][0] += 1e-3


# each edit keeps the label and point counts of the construction
TAMPERINGS = {
    "swapped labels": (_swap_first_and_last_labels, "labels do not match"),
    "every label V1": (lambda d: d.update(labels=[["V1", k] for _, k in d["labels"]]),
                       "labels do not match"),
    "unknown part": (lambda d: d["labels"].__setitem__(3, ["V9", 0]), "labels do not match"),
    "moved origin": (_move_one_origin, "origins do not match"),
    "moved point": (lambda d: d["points"][7].__setitem__(0, d["points"][7][0] + 1e-3),
                    "points do not regenerate"),
}


def tampered_layered_json(name: str) -> str:
    """A perturbed p = 3, t = 1 instance file with one of TAMPERINGS applied."""
    li = build_layered(3, sigma=1e-4, t=1)
    data = json.loads(li.to_json(li.perturbed(5)))
    TAMPERINGS[name][0](data)
    return json.dumps(data)


@pytest.mark.parametrize("name", sorted(TAMPERINGS))
def test_layered_json_must_match_the_construction(name):
    with pytest.raises(ValueError, match=TAMPERINGS[name][1]):
        LayeredInstance.from_json(tampered_layered_json(name))


@pytest.mark.parametrize("edit", [
    lambda d: d.pop("labels"),
    lambda d: d.update(params=5),
    lambda d: d["params"].pop("P"),
    lambda d: d["params"].update(p=3.5),
    lambda d: d["params"].update(sigma=None),
    lambda d: d["params"].update(P=2186),
])
def test_layered_json_rejects_malformed_params(edit):
    li = build_layered(3, sigma=1e-4, t=1)
    data = json.loads(li.to_json())
    edit(data)
    with pytest.raises(ValueError):
        LayeredInstance.from_json(json.dumps(data))
