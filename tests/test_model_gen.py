"""Data generator: distribution, determinism, mean machinery, differencing."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

import netrls as nr
from netrls.model_gen import _normal_rows, _standard_normal

from conftest import reference_model


def test_noiseless_pairs_satisfy_model_exactly():
    spec = nr.ModelSpec(theta=[[1.6, 0.3], [0.8, 0.3]], sigma_x=3.0, sigma_eta=0.0, m=2)
    stream = nr.SeededStream(123)
    for t in (1, 5, 17):
        pair = nr.sample_pair(spec, stream, run=0, agent=1, t=t)
        assert pair.y == pytest.approx(spec.theta @ pair.x, rel=1e-14, abs=0.0)


def test_zero_map_yields_zero_labels():
    spec = nr.ModelSpec(theta=[[0.0]], sigma_x=1.0, sigma_eta=0.0, m=1)
    stream = nr.SeededStream(5)
    x, y = nr.sample_block(spec, stream, 0, 0, 1, 50)
    assert np.all(y == 0.0)
    assert np.any(x != 0.0)


def test_feature_covariance_matches_reference_scale():
    # sigma_x = 3 so the feature covariance is 9 * I; sample-moment oracle
    # over 1e5 draws must land within 2% of 9 on every entry
    spec = reference_model()
    stream = nr.SeededStream(2023)
    x, _ = nr.sample_block(spec, stream, 0, 0, 1, 100_000)
    cov = x.T @ x / x.shape[0]
    assert np.all(np.abs(cov - 9.0 * np.eye(2)) <= 0.02 * 9.0)


def test_noise_variance_scale():
    spec = nr.ModelSpec(theta=[[0.0, 0.0]], sigma_x=1.0, sigma_eta=2.0, m=1)
    stream = nr.SeededStream(99)
    _, y = nr.sample_block(spec, stream, 0, 0, 1, 100_000)
    # theta = 0 so y is pure noise with variance 4
    assert np.var(y) == pytest.approx(4.0, rel=0.03)


def test_bit_identical_reproduction():
    spec = reference_model()
    a = nr.sample_pair(spec, nr.SeededStream(777), 3, 2, 41)
    b = nr.sample_pair(spec, nr.SeededStream(777), 3, 2, 41)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)
    c = nr.sample_pair(spec, nr.SeededStream(778), 3, 2, 41)
    assert not np.array_equal(a.x, c.x)


def test_draws_are_order_insensitive():
    spec = reference_model()
    stream = nr.SeededStream(42)
    x_block, y_block = nr.sample_block(spec, stream, 1, 4, 1, 30)
    order = np.random.default_rng(0).permutation(30)
    for t_idx in order:
        pair = nr.sample_pair(spec, stream, 1, 4, int(t_idx) + 1)
        assert np.array_equal(pair.x, x_block[t_idx])
        assert np.array_equal(pair.y, y_block[t_idx])


def test_distinct_triples_are_distinct():
    spec = reference_model()
    stream = nr.SeededStream(42)
    base = nr.sample_pair(spec, stream, 0, 0, 1)
    for run, agent, t in [(1, 0, 1), (0, 1, 1), (0, 0, 2)]:
        other = nr.sample_pair(spec, stream, run, agent, t)
        assert not np.array_equal(base.x, other.x)


def test_zero_mean_sample_average():
    # ||mean of N draws|| <= 4 sigma_x sqrt(n / N)
    spec = reference_model()
    stream = nr.SeededStream(11)
    for run, agent, n_draws in [(0, 0, 4000), (1, 3, 8000), (2, 5, 2000)]:
        x, _ = nr.sample_block(spec, stream, run, agent, 1, n_draws)
        bound = 4.0 * spec.sigma_x * np.sqrt(spec.n / n_draws)
        assert np.linalg.norm(x.mean(axis=0)) <= bound


def test_counter_layout_padding():
    # width 5 spans two counter blocks per step; rows must still line up
    spec = nr.ModelSpec(theta=np.zeros((2, 3)), sigma_x=1.0, sigma_eta=1.0, m=1)
    stream = nr.SeededStream(1)
    solo = _normal_rows(stream, 0, 0, 9, 1, 5)
    block = _normal_rows(stream, 0, 0, 1, 20, 5)
    assert np.array_equal(solo[0], block[8])


def test_largest_uniform_maps_to_a_finite_draw():
    # 1 - 2**-53 is the largest value Generator.random returns; shifted by
    # 2**-54 it rounds to 1.0, where the inverse CDF is +inf
    u = np.array([0.0, 0.5, 1 - 2.0**-52, 1 - 2.0**-53])
    assert np.isinf(ndtri(u[3] + 2.0**-54))
    z = _standard_normal(u)
    assert np.all(np.isfinite(z))
    # every other value keeps its bits
    assert np.array_equal(z[:3], ndtri(u[:3] + 2.0**-54))
    assert z[3] == ndtri(np.nextafter(1.0, 0.0)) and z[3] > z[2] > 8.0
    assert z[0] < -8.0 and z[1] == 0.0


def test_scipy_is_imported_at_the_first_draw(tmp_path):
    # a fresh interpreter, so the imports of this test session do not mask it;
    # plan and bounds never sample, so they leave scipy out too
    config = Path(__file__).parent.parent / "configs" / "paper.json"
    script = f"""
import sys
import netrls, netrls.cli
from netrls.cli import main
assert main(["plan", {str(config)!r}, "-o", {str(tmp_path / "plan.json")!r}]) == 0
assert main(["bounds", {str(config)!r}, "--at", "200,400"]) == 0
print("scipy" in sys.modules)
netrls.sample_pair(netrls.ModelSpec(theta=[[1.0]], sigma_x=1.0, sigma_eta=1.0, m=1),
                   netrls.SeededStream(0), run=0, agent=0, t=1)
print("scipy" in sys.modules)
"""
    src = str(Path(nr.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert out[-2:] == ["False", "True"]


def test_constant_mean_shifts_draws():
    mean = nr.ConstantMean(vectors=[[10.0, -4.0], [0.0, 0.0]])
    spec = nr.ModelSpec(theta=np.eye(2), sigma_x=1.0, sigma_eta=0.0, m=2, mean=mean)
    stream = nr.SeededStream(3)
    x, _ = nr.sample_block(spec, stream, 0, 0, 1, 20_000)
    assert np.allclose(x.mean(axis=0), [10.0, -4.0], atol=0.05)
    assert spec.mu_hat == pytest.approx(np.hypot(10.0, 4.0))


def test_mu_bar_zero_schedule():
    spec = reference_model()
    assert np.array_equal(nr.mu_bar(spec, 0, 10), np.zeros((2, 2)))
    assert nr.mu_bar_lambda_min(spec, 10) == pytest.approx(1.0)
    assert nr.mu_bar_lambda_min(spec, 10, agent=2) == pytest.approx(1.0)


def test_mu_bar_constant_schedule_is_time_invariant():
    v = np.array([1.0, -2.0])
    mean = nr.ConstantMean(vectors=np.tile(v, (3, 1)))
    spec = nr.ModelSpec(theta=np.zeros((1, 2)), sigma_x=2.0, sigma_eta=0.0, m=3, mean=mean)
    expected = (4.0 / 4.0) * np.outer(v, v)
    for t in (1, 7, 64):
        assert np.allclose(nr.mu_bar(spec, 1, t), expected, rtol=1e-12)
    assert np.allclose(nr.mu_bar_pooled(spec, 7), expected, rtol=1e-12)


def test_mu_bar_sinusoid_direct_summation():
    # period 2 alternates the sign, so both steps contribute amplitude^2;
    # direct-summation oracle: 4 * a^2 / sigma_x^2 = 2.25 for a=1.5, sigma_x=2
    mean = nr.SinusoidMean(amplitudes=[[1.5]], periods=[2.0])
    spec = nr.ModelSpec(theta=[[1.0]], sigma_x=2.0, sigma_eta=0.0, m=1, mean=mean)
    assert nr.mu_bar(spec, 0, 2)[0, 0] == pytest.approx(2.25, rel=1e-12)
    assert spec.mu_hat == pytest.approx(1.5)


def test_mu_bar_pooled_averages_agents():
    mean = nr.ConstantMean(vectors=[[2.0, 0.0], [0.0, 1.0]])
    spec = nr.ModelSpec(theta=np.zeros((1, 2)), sigma_x=1.0, sigma_eta=0.0, m=2, mean=mean)
    per_agent = [nr.mu_bar(spec, i, 5) for i in range(2)]
    assert np.allclose(nr.mu_bar_pooled(spec, 5), np.mean(per_agent, axis=0), rtol=1e-12)


def test_difference_transform_definition():
    p1 = nr.DataPair(x=np.array([1.0, 2.0]), y=np.array([3.0]), agent_id=0, time=1)
    p2 = nr.DataPair(x=np.array([0.5, -1.0]), y=np.array([1.0]), agent_id=0, time=2)
    out = nr.difference_transform([p1, p2])
    assert len(out) == 1
    assert np.array_equal(out[0].x, [0.5, 3.0])
    assert np.array_equal(out[0].y, [2.0])
    assert out[0].time == 1

    same = nr.difference_transform([p1, p1])
    assert np.all(same[0].x == 0.0) and np.all(same[0].y == 0.0)


def test_difference_transform_drops_odd_tail_and_warns_when_short():
    pairs = [
        nr.DataPair(x=np.array([float(k)]), y=np.array([0.0]), agent_id=0, time=k + 1)
        for k in range(5)
    ]
    assert len(nr.difference_transform(pairs)) == 2
    with pytest.warns(UserWarning):
        assert nr.difference_transform(pairs[:1]) == []


def test_difference_transform_cancels_constant_mean():
    mean = nr.ConstantMean(vectors=[[5.0, 5.0]])
    spec = nr.ModelSpec(theta=[[1.0, 0.5]], sigma_x=2.0, sigma_eta=0.3, m=1, mean=mean)
    stream = nr.SeededStream(60)
    x, y = nr.sample_block(spec, stream, 0, 0, 1, 20_000)
    pairs = [
        nr.DataPair(x=x[k], y=y[k], agent_id=0, time=k + 1) for k in range(x.shape[0])
    ]
    out = nr.difference_transform(pairs)
    assert len(out) == 10_000

    # model still holds: y_hat - theta x_hat equals the differenced noise
    xs = np.stack([p.x for p in out])
    ys = np.stack([p.y for p in out])
    eta_hat = (y - x @ spec.theta.T)[0::2] - (y - x @ spec.theta.T)[1::2]
    assert np.allclose(ys - xs @ spec.theta.T, eta_hat, atol=1e-12)

    # transformed features are zero-mean with doubled variance
    se = np.sqrt(2.0 * spec.sigma_x**2 * spec.n / len(out))
    assert np.linalg.norm(xs.mean(axis=0)) <= 3.0 * se

    twin = nr.differenced_model(spec)
    assert twin.sigma_x == pytest.approx(np.sqrt(2.0) * spec.sigma_x)
    assert twin.sigma_eta == pytest.approx(np.sqrt(2.0) * spec.sigma_eta)
    assert twin.mu_hat == 0.0


def test_spec_validation():
    with pytest.raises(ValueError):
        nr.ModelSpec(theta=[[1.0]], sigma_x=0.0, sigma_eta=1.0, m=1)
    with pytest.raises(ValueError):
        nr.ModelSpec(theta=[[1.0]], sigma_x=1.0, sigma_eta=-0.1, m=1)
    with pytest.raises(ValueError):
        nr.ModelSpec(theta=[[1.0]], sigma_x=1.0, sigma_eta=1.0, m=0)
    with pytest.raises(ValueError):
        nr.ModelSpec(theta=[[1.0, 0.0]], sigma_x=1.0, sigma_eta=0.0, m=2,
                     mean=nr.ConstantMean(vectors=[[1.0, 0.0]]))
    with pytest.raises(ValueError):
        nr.SeededStream(-1)
    with pytest.raises(ValueError):
        nr.sample_pair(reference_model(), nr.SeededStream(0), 0, 6, 1)
    with pytest.raises(ValueError):
        nr.sample_pair(reference_model(), nr.SeededStream(0), 0, 0, 0)


def test_theta_norm_property():
    spec = reference_model()
    assert spec.theta_norm == pytest.approx(np.linalg.norm(np.asarray(spec.theta), 2))
    assert spec.n == 2 and spec.l == 2
