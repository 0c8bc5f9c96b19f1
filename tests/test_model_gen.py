"""Data generator: distribution, determinism, mean machinery, differencing."""

from __future__ import annotations

import hashlib
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
    for t in (1, 5, 17):
        x, y = nr.sample_block(spec, 123, 0, t, 1)
        for agent in range(spec.m):
            assert y[0, agent] == pytest.approx(spec.theta @ x[0, agent], rel=1e-14, abs=0.0)


def test_zero_map_yields_zero_labels():
    spec = nr.ModelSpec(theta=[[0.0]], sigma_x=1.0, sigma_eta=0.0, m=1)
    x, y = nr.sample_block(spec, 5, 0, 1, 50)
    assert np.all(y == 0.0)
    assert np.any(x != 0.0)


def test_feature_covariance_matches_reference_scale():
    # sigma_x = 3 so the feature covariance is 9 * I; sample-moment oracle
    # over 1e5 draws must land within 2% of 9 on every entry
    spec = reference_model()
    x = nr.sample_block(spec, 2023, 0, 1, 100_000)[0][:, 0]
    cov = x.T @ x / x.shape[0]
    assert np.all(np.abs(cov - 9.0 * np.eye(2)) <= 0.02 * 9.0)


def test_noise_variance_scale():
    spec = nr.ModelSpec(theta=[[0.0, 0.0]], sigma_x=1.0, sigma_eta=2.0, m=1)
    _, y = nr.sample_block(spec, 99, 0, 1, 100_000)
    # theta = 0 so y is pure noise with variance 4
    assert np.var(y) == pytest.approx(4.0, rel=0.03)


def test_bit_identical_reproduction():
    spec = reference_model()
    a = nr.sample_block(spec, 777, 3, 41, 1)
    b = nr.sample_block(spec, 777, 3, 41, 1)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = nr.sample_block(spec, 778, 3, 41, 1)
    assert not np.array_equal(a[0], c[0])


def test_draws_are_order_insensitive():
    spec = reference_model()
    seed = 42
    x_block, y_block = nr.sample_block(spec, seed, 1, 1, 30)
    order = np.random.default_rng(0).permutation(30)
    for t_idx in order:
        x, y = nr.sample_block(spec, seed, 1, int(t_idx) + 1, 1)
        assert np.array_equal(x[0], x_block[t_idx])
        assert np.array_equal(y[0], y_block[t_idx])


# sha256 of x then y for every call in DIGEST_CALLS, with each agent drawn on
# its own and the draws stacked on axis 1: the layout of an all-agent block.
# Recorded before sample_block drew every agent in one call.
DIGEST_THETAS = {"2x2": [[1.6, 0.3], [0.8, 0.3]], "n1l3": [[1.0], [-0.5], [2.0]],
                 "n3l2": [[0.5, -1.0, 0.25], [1.5, 0.0, -0.75]]}
DIGEST_CALLS = [(0, 1, 1), (0, 1, 600), (3, 41, 1), (1, 513, 37), (2**32 - 1, 10**6, 5)]
PER_AGENT_DIGESTS = {
    ("zero", "2x2"): "742f6629f5f08e07fdb63603df7f63f70f12aced9c0806ee283ca2ec0de6c639",
    ("zero", "n1l3"): "f9054296f8885a948e0bf729910951e162c2e44a90ee92c827cf5ddaa7f25c08",
    ("zero", "n3l2"): "ddc65ce39d97fb8cdc1eb6faac31868cca5f1bf8c0b5bf800c02d3b301a184d5",
    ("constant", "2x2"): "cb46e91845b610c56748826bb9d36d7804b616d42e2e2bda0abc2a59dbfe561a",
    ("constant", "n1l3"): "e836dfaefde2046400aeb09e12e3915f53e959f820ca75cb7884a37148e18def",
    ("constant", "n3l2"): "46ef669bdea361daea4e7ba2b5cae7bd48dd01a547620f31ee956aac98d358d1",
    ("sinusoid", "2x2"): "a6de09efb61d79658d7febe1477902651aff3e0e5c96eef711a5c14cb3e3c572",
    ("sinusoid", "n1l3"): "ba9e9cf8d00b0a0b6f7b307774b4c3c43722b455074ae52bbdfe20acfa71dd53",
    ("sinusoid", "n3l2"): "7ffddef24d4862db8629b873bdf653b33aa1accdac00523ec890abb7dd8249e6",
}


def _digest_mean(kind: str, n: int):
    if kind == "zero":
        return nr.ZeroMean()
    if kind == "constant":
        return nr.ConstantMean(vectors=np.arange(3 * n, dtype=float).reshape(3, n) - 1.5)
    return nr.SinusoidMean(amplitudes=np.linspace(-1.0, 2.0, 3 * n).reshape(3, n),
                           periods=[7.0, 19.5, 250.0])


@pytest.mark.parametrize("kind, shape", sorted(PER_AGENT_DIGESTS))
def test_all_agent_draws_match_the_per_agent_digests(kind, shape):
    theta = DIGEST_THETAS[shape]
    spec = nr.ModelSpec(theta=theta, sigma_x=3.0, sigma_eta=0.5, m=3,
                        mean=_digest_mean(kind, np.shape(theta)[1]))
    seed = 2022
    digest = hashlib.sha256()
    for run, t_start, count in DIGEST_CALLS:
        x, y = nr.sample_block(spec, seed, run, t_start, count)
        assert x.shape == (count, 3, spec.n) and y.shape == (count, 3, spec.l)
        digest.update(x.tobytes())
        digest.update(y.tobytes())
        # the last row drawn alone is the same row drawn inside the block
        x_row, y_row = nr.sample_block(spec, seed, run, t_start + count - 1, 1)
        assert np.array_equal(x_row[0], x[-1]) and np.array_equal(y_row[0], y[-1])
    assert digest.hexdigest() == PER_AGENT_DIGESTS[kind, shape]


def test_distinct_triples_are_distinct():
    spec = reference_model()
    seed = 42
    # (run, agent, t) = (0, 0, 1) against (1, 0, 1), (0, 1, 1) and (0, 0, 2)
    x, _ = nr.sample_block(spec, seed, 0, 1, 2)
    other_run, _ = nr.sample_block(spec, seed, 1, 1, 1)
    for other in (other_run[0, 0], x[0, 1], x[1, 0]):
        assert not np.array_equal(x[0, 0], other)


def test_zero_mean_sample_average():
    # ||mean of N draws|| <= 4 sigma_x sqrt(n / N)
    spec = reference_model()
    for run, agent, n_draws in [(0, 0, 4000), (1, 3, 8000), (2, 5, 2000)]:
        x, _ = nr.sample_block(spec, 11, run, 1, n_draws)
        bound = 4.0 * spec.sigma_x * np.sqrt(spec.n / n_draws)
        assert np.linalg.norm(x[:, agent].mean(axis=0)) <= bound


def test_counter_layout_padding():
    # width 5 spans two counter blocks per step; rows must still line up
    spec = nr.ModelSpec(theta=np.zeros((2, 3)), sigma_x=1.0, sigma_eta=1.0, m=1)
    seed = 1
    solo = _normal_rows(seed, 0, 2, 9, 1, 5)
    block = _normal_rows(seed, 0, 2, 1, 20, 5)
    assert np.array_equal(solo[0], block[8])


@pytest.mark.parametrize("width", [4, 5])
def test_counters_past_64_bits_match_a_fresh_generator_per_agent(width):
    # the first start's counter crosses 2**64 within the block, the second is
    # 2**64, and the third sets a bit of the third of Philox's four counter words
    from numpy.random import Generator, Philox

    blocks = -(-width // 4)
    seed, run, m, count = 2**64 - 3, 7, 3, 4
    for t_start in (2**64 // blocks - 1, 2**64 // blocks + 1, 2**150 + 2):
        z = _normal_rows(seed, run, m, t_start, count, width)
        assert z.shape == (count, m, width)
        for agent in range(m):
            key = np.array([seed, (run << 32) | agent], dtype=np.uint64)
            u = Generator(Philox(counter=(t_start - 1) * blocks, key=key)).random((count, 4 * blocks))
            assert np.array_equal(z[:, agent], _standard_normal(u)[:, :width]), (t_start, agent)


def test_standard_normal_leaves_its_argument_unchanged():
    u = np.random.default_rng(4).random((3, 5, 8))
    u[0, 0, 0] = 1 - 2.0**-53
    before = u.tobytes()
    # contiguous, sliced and transposed arguments, as _normal_rows passes a slice
    for arg in (u, u[..., :5], u.transpose(1, 0, 2)):
        z = _standard_normal(arg)
        assert u.tobytes() == before
        assert np.array_equal(z, ndtri(np.minimum(arg + 2.0**-54, np.nextafter(1.0, 0.0))))


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
    # plan and bounds never sample, so they leave scipy and numpy.random out
    # too. Some numpy versions import numpy.random with numpy itself, so only
    # what netrls adds to a plain numpy import is checked.
    config = Path(__file__).parent.parent / "configs" / "paper.json"
    script = f"""
import sys
import numpy
with_numpy = "numpy.random" in sys.modules
import netrls, netrls.cli
from netrls.cli import main
assert main(["plan", {str(config)!r}, "-o", {str(tmp_path / "plan.json")!r}]) == 0
assert main(["bounds", {str(config)!r}, "--at", "200,400"]) == 0
print("scipy" in sys.modules, ("numpy.random" in sys.modules) == with_numpy)
netrls.sample_block(netrls.ModelSpec(theta=[[1.0]], sigma_x=1.0, sigma_eta=1.0, m=1),
                    seed=0, run=0, t_start=1, count=1)
print("scipy" in sys.modules, "numpy.random" in sys.modules)
"""
    src = str(Path(nr.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert out[-4:] == ["False", "True", "True", "True"]


def test_constant_mean_shifts_draws():
    mean = nr.ConstantMean(vectors=[[10.0, -4.0], [0.0, 0.0]])
    spec = nr.ModelSpec(theta=np.eye(2), sigma_x=1.0, sigma_eta=0.0, m=2, mean=mean)
    x, _ = nr.sample_block(spec, 3, 0, 1, 20_000)
    assert np.allclose(x.mean(axis=0), [[10.0, -4.0], [0.0, 0.0]], atol=0.05)
    assert spec.mu_hat == pytest.approx(np.hypot(10.0, 4.0))


def test_mu_bar_zero_schedule():
    spec = reference_model()
    assert np.array_equal(nr.mu_bar(spec, 0, 10), np.zeros((2, 2)))
    assert nr.mu_bar_lambda_min(spec, 10) == pytest.approx(1.0)
    assert nr.mu_bar_lambda_min(spec, 10, agent=2) == pytest.approx(1.0)
    for at_zero in (lambda: nr.mu_bar(spec, 0, 0), lambda: nr.mu_bar_pooled(spec, 0)):
        with pytest.raises(ValueError, match="^t must be >= 1$"):
            at_zero()


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


@pytest.mark.parametrize("agent", [-1, 2, 5])
@pytest.mark.parametrize("mean", [nr.ZeroMean(), nr.ConstantMean(vectors=[[1.0], [2.0]])])
def test_mu_bar_rejects_an_agent_out_of_range(mean, agent):
    spec = nr.ModelSpec(theta=[[1.0]], sigma_x=1.0, sigma_eta=0.0, m=2, mean=mean)
    with pytest.raises(ValueError, match=rf"agent index {agent} out of range \[0, 2\)"):
        nr.mu_bar(spec, agent, 10)
    with pytest.raises(ValueError, match="out of range"):
        nr.mu_bar_lambda_min(spec, 10, agent=agent)


def test_difference_transform_definition():
    x = np.array([[1.0, 2.0], [0.5, -1.0]])
    y = np.array([[3.0], [1.0]])
    x_hat, y_hat = nr.difference_transform(x, y)
    assert np.array_equal(x_hat, [[0.5, 3.0]])
    assert np.array_equal(y_hat, [[2.0]])

    same = nr.difference_transform(x[[0, 0]], y[[0, 0]])
    assert np.all(same[0] == 0.0) and np.all(same[1] == 0.0)


def test_difference_transform_drops_odd_tail_and_warns_when_short():
    x = np.arange(5.0)[:, None]
    y = np.zeros((5, 1))
    x_hat, y_hat = nr.difference_transform(x, y)
    assert np.array_equal(x_hat, [[-1.0], [-1.0]]) and y_hat.shape == (2, 1)
    with pytest.warns(UserWarning):
        x_hat, y_hat = nr.difference_transform(x[:1], y[:1])
    assert x_hat.shape == (0, 1) and y_hat.shape == (0, 1)


def test_difference_transform_cancels_constant_mean():
    # an all-agent block is differenced along its time axis, every agent at once
    mean = nr.ConstantMean(vectors=[[5.0, 5.0], [-3.0, 1.0]])
    spec = nr.ModelSpec(theta=[[1.0, 0.5]], sigma_x=2.0, sigma_eta=0.3, m=2, mean=mean)
    x, y = nr.sample_block(spec, 60, 0, 1, 20_000)
    xs, ys = nr.difference_transform(x, y)
    assert xs.shape == (10_000, 2, 2) and ys.shape == (10_000, 2, 1)
    assert np.array_equal(xs[:, 1], nr.difference_transform(x[:, 1], y[:, 1])[0])

    # model still holds: y_hat - theta x_hat equals the differenced noise
    eta = y - x @ spec.theta.T
    assert np.allclose(ys - xs @ spec.theta.T, eta[0::2] - eta[1::2], atol=1e-12)

    # transformed features are zero-mean with doubled variance
    se = np.sqrt(2.0 * spec.sigma_x**2 * spec.n / len(xs))
    assert np.all(np.linalg.norm(xs.mean(axis=0), axis=1) <= 3.0 * se)

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
    with pytest.raises(ValueError, match="^theta must be a 2-D matrix$"):
        nr.ModelSpec(theta=np.ones((1, 2, 2)), sigma_x=1.0, sigma_eta=0.0, m=1)
    with pytest.raises(ValueError, match=r"^sinusoid amplitudes have shape \(1, 2\), "
                                         r"expected \(2, 2\)$"):
        nr.ModelSpec(theta=[[1.0, 0.0]], sigma_x=1.0, sigma_eta=0.0, m=2,
                     mean=nr.SinusoidMean(amplitudes=[[1.0, 0.0]], periods=[5.0, 5.0]))
    with pytest.raises(ValueError, match=r"^sinusoid periods have shape \(3,\), "
                                         r"expected \(2,\)$"):
        nr.ModelSpec(theta=[[1.0, 0.0]], sigma_x=1.0, sigma_eta=0.0, m=2,
                     mean=nr.SinusoidMean(amplitudes=np.ones((2, 2)), periods=[5.0] * 3))
    with pytest.raises(ValueError):
        nr.sample_block(reference_model(), 0, 0, 0, 1)


@pytest.mark.parametrize("seed, run, m, message", [
    (-1, 0, 1, "seed must fit in 64 bits"),
    (2**64, 0, 1, "seed must fit in 64 bits"),
    (2**64 - 1, -1, 1, "run index must fit in 32 bits"),
    (0, 2**32, 1, "run index must fit in 32 bits"),
    (0, 2**32 - 1, 2**32 + 1, "agent index must fit in 32 bits"),
    # a float would otherwise be truncated onto another integer's stream
    (1.5, 0, 1, "seed must be an integer, got 1.5"),
    (1.0, 0, 1, "seed must be an integer, got 1.0"),
    (1, 0.0, 1, "run index must be an integer, got 0.0"),
])
def test_philox_key_fields_out_of_range_are_rejected(seed, run, m, message):
    # checked before any draw or allocation, so m may exceed what fits in memory
    with pytest.raises(ValueError, match=f"^{message}$"):
        _normal_rows(seed, run, m, 1, 0, 1)
    if m == 1:
        with pytest.raises(ValueError, match=f"^{message}$"):
            nr.sample_block(reference_model(), seed, run, 1, 1)


def test_numpy_integer_seed_and_run_draw_the_stream_of_the_equal_int():
    spec = reference_model()
    x, y = nr.sample_block(spec, np.uint64(2**64 - 1), np.int64(3), 1, 3)
    x_int, y_int = nr.sample_block(spec, 2**64 - 1, 3, 1, 3)
    assert np.array_equal(x, x_int) and np.array_equal(y, y_int)


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("field, make", [
    ("sigma_eta", lambda: nr.ModelSpec(theta=[[1.0]], sigma_x=1.0, sigma_eta=NAN, m=1)),
    ("sigma_eta", lambda: nr.ModelSpec(theta=[[1.0]], sigma_x=1.0, sigma_eta=INF, m=1)),
    ("sigma_x", lambda: nr.ModelSpec(theta=[[1.0]], sigma_x=INF, sigma_eta=1.0, m=1)),
    ("sigma_x", lambda: nr.ModelSpec(theta=[[1.0]], sigma_x=NAN, sigma_eta=1.0, m=1)),
    ("theta", lambda: nr.ModelSpec(theta=[[1.0, NAN]], sigma_x=1.0, sigma_eta=1.0, m=1)),
    ("theta", lambda: nr.ModelSpec(theta=[[-INF]], sigma_x=1.0, sigma_eta=1.0, m=1)),
    ("periods", lambda: nr.SinusoidMean(amplitudes=[[1.0], [1.0]], periods=[10.0, NAN])),
    ("amplitudes", lambda: nr.SinusoidMean(amplitudes=[[NAN], [1.0]], periods=[10.0, 5.0])),
    ("vectors", lambda: nr.ConstantMean(vectors=[[0.0, NAN]])),
    ("vectors", lambda: nr.ConstantMean(vectors=[[INF, 0.0]])),
])
def test_non_finite_model_inputs_are_rejected_naming_the_field(field, make):
    # the message opens with the field, so a config section can route it
    with pytest.raises(ValueError, match=rf"^{field} must be "):
        make()


@pytest.mark.parametrize("theta", [[[]], [], np.zeros((0, 2)), np.zeros((2, 0))],
                         ids=["empty-row", "empty", "no-rows", "no-columns"])
def test_empty_theta_is_rejected_naming_it(theta):
    # n or l of 0 would otherwise fail deep in the engine at the first run
    with pytest.raises(ValueError, match=r"^theta must not be empty, got shape "):
        nr.ModelSpec(theta=theta, sigma_x=1.0, sigma_eta=1.0, m=1)


def test_theta_norm_property():
    spec = reference_model()
    assert spec.theta_norm == pytest.approx(np.linalg.norm(np.asarray(spec.theta), 2))
    assert spec.n == 2 and spec.l == 2
