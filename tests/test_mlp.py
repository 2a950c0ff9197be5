import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from risfed import fed, mlp
from risfed.harness import ExperimentConfig

LAYER_SHAPES = [(64, 400), (64,), (32, 64), (32,), (4, 32), (4,)]


def zero_params():
    return np.zeros(mlp.PARAM_COUNT)


def random_batch(rng, B=8):
    return mlp.MiniBatch(inputs=rng.standard_normal((B, 400)), labels=rng.integers(0, 4, B))


def test_param_count():
    params = mlp.init(np.random.default_rng(0))
    assert params.shape == (mlp.PARAM_COUNT,) and mlp.PARAM_COUNT == 27_876
    assert params.dtype == np.float64 and params.flags.c_contiguous


def test_init_biases_zero_and_seeded():
    p1 = mlp.init(np.random.default_rng(5))
    p2 = mlp.init(np.random.default_rng(5))
    for b in mlp.layers(p1)[1::2]:
        assert np.all(b == 0)
    assert p1.tobytes() == p2.tobytes()


def test_init_he_scale():
    p = mlp.init(np.random.default_rng(6))
    assert mlp.layers(p)[0].std() == pytest.approx(math.sqrt(2.0 / 400), rel=0.05)


def test_forward_zero_params_uniform():
    out = mlp.forward(zero_params(), np.random.default_rng(0).standard_normal(400))
    assert np.allclose(out, 0.25, atol=1e-15)


def test_forward_batch_rows_sum_to_one():
    rng = np.random.default_rng(7)
    params = mlp.init(rng)
    probs = mlp.forward(params, rng.standard_normal((16, 400)))
    assert probs.shape == (16, 4)
    assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-12
    assert np.all(probs > 0)


def test_softmax_shift_invariance_via_b3():
    rng = np.random.default_rng(8)
    params = mlp.init(rng)
    x = rng.standard_normal(400)
    base = mlp.forward(params, x)
    shifted = params.copy()
    mlp.layers(shifted)[5][:] += 7.5
    assert np.allclose(mlp.forward(shifted, x), base, atol=1e-12)


def test_loss_uniform_is_ln4():
    rng = np.random.default_rng(9)
    batch = random_batch(rng, B=32)
    assert mlp.loss(zero_params(), batch) == pytest.approx(math.log(4.0), abs=1e-12)


def test_loss_perfect_prediction_near_zero():
    boosted = zero_params()
    mlp.layers(boosted)[5][:] = [200.0, -200.0, -200.0, -200.0]
    batch = mlp.MiniBatch(inputs=np.zeros((4, 400)), labels=np.zeros(4, dtype=np.int64))
    assert mlp.loss(boosted, batch) == pytest.approx(0.0, abs=1e-12)


def test_batch_loss_equals_mean_of_per_sample_losses():
    rng = np.random.default_rng(10)
    params = mlp.init(rng)
    batch = random_batch(rng, B=20)
    per_sample = [
        mlp.loss(params, mlp.MiniBatch(batch.inputs[j:j + 1], batch.labels[j:j + 1]))
        for j in range(20)
    ]
    assert mlp.loss(params, batch) == pytest.approx(float(np.mean(per_sample)), rel=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_loss_bounded(seed):
    rng = np.random.default_rng(seed)
    params = mlp.init(rng)
    batch = random_batch(rng, B=4)
    value = mlp.loss(params, batch)
    assert 0.0 <= value <= -math.log(mlp.PROB_FLOOR)


def test_grad_b3_closed_form_at_zero_params():
    batch = mlp.MiniBatch(inputs=np.random.default_rng(0).standard_normal((1, 400)),
                          labels=np.array([2]))
    g = mlp.grad(zero_params(), batch)
    expected = np.full(4, 0.25)
    expected[2] -= 1.0
    assert np.allclose(mlp.layers(g)[5], expected, atol=1e-15)


def test_grad_zero_input_gives_zero_W1_grad():
    rng = np.random.default_rng(11)
    params = mlp.init(rng)
    batch = mlp.MiniBatch(inputs=np.zeros((3, 400)), labels=np.array([0, 1, 2]))
    g = mlp.grad(params, batch)
    assert np.all(mlp.layers(g)[0] == 0)


def finite_difference_check(params, batch, rng, n_coords=10, step=1e-5):
    analytic = mlp.grad(params, batch)
    coords = rng.choice(params.size, size=n_coords, replace=False)
    worst = 0.0
    for c in coords:
        plus, minus = params.copy(), params.copy()
        plus[c] += step
        minus[c] -= step
        fd = (mlp.loss(plus, batch) - mlp.loss(minus, batch)) / (2 * step)
        denom = max(abs(fd), abs(analytic[c]), 1e-8)
        worst = max(worst, abs(fd - analytic[c]) / denom)
    return worst


def test_gradient_finite_difference_quick():
    rng = np.random.default_rng(12)
    params = mlp.init(rng)
    batch = random_batch(rng, B=6)
    assert finite_difference_check(params, batch, rng) <= 1e-5


def test_forward_loss_grad_pure():
    rng = np.random.default_rng(13)
    params = mlp.init(rng)
    batch = random_batch(rng, B=5)
    before = params.tobytes()
    l1, l2 = mlp.loss(params, batch), mlp.loss(params, batch)
    g1, g2 = mlp.grad(params, batch), mlp.grad(params, batch)
    assert l1 == l2
    assert g1.tobytes() == g2.tobytes()
    assert params.tobytes() == before


def test_vector_round_trip_and_add_scaled():
    rng = np.random.default_rng(14)
    p = mlp.init(rng)
    q = mlp.init(rng)
    assert mlp.to_vector(p) is p
    copy = mlp.from_vector(p)
    assert copy is not p and np.array_equal(copy, p)
    combo = mlp.add_scaled(p, q, -0.5, out=np.empty(mlp.PARAM_COUNT))
    assert np.allclose(combo, p - 0.5 * q)
    before = p.tobytes()
    with pytest.raises(ValueError):
        mlp.add_scaled(p, q, -0.5, out=p)
    assert p.tobytes() == before
    with pytest.raises(ValueError):
        mlp.from_vector(np.zeros(10))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 31 - 1),
       coeff=st.floats(min_value=-1e3, max_value=1e3, allow_subnormal=True))
def test_add_scaled_in_place_equals_allocating(seed, coeff):
    rng = np.random.default_rng(seed)
    p, q = mlp.init(rng), rng.standard_normal(mlp.PARAM_COUNT)
    p_bytes, q_bytes = p.tobytes(), q.tobytes()
    expected = (p + coeff * q).tobytes()
    buf = np.empty(mlp.PARAM_COUNT)
    assert mlp.add_scaled(p, q, coeff, out=buf) is buf
    assert buf.tobytes() == expected
    assert p.tobytes() == p_bytes and q.tobytes() == q_bytes
    assert mlp.add_scaled(p, q, coeff, out=q) is q
    assert q.tobytes() == expected
    assert p.tobytes() == p_bytes


@pytest.mark.parametrize("B", [1, 7, 50])
def test_grad_loss_predict_leave_theta_and_inputs_unchanged(B):
    rng = np.random.default_rng(40 + B)
    theta = mlp.init(rng)
    mlp.layers(theta)[5][:] = rng.standard_normal(4)  # nonzero output bias
    batch = random_batch(rng, B=B)
    theta_bytes, input_bytes = theta.tobytes(), batch.inputs.tobytes()
    mlp.grad(theta, batch)
    mlp.loss(theta, batch)
    mlp.predict(theta, batch.inputs)
    mlp.predict(theta, batch.inputs[0])
    assert theta.tobytes() == theta_bytes
    assert batch.inputs.tobytes() == input_bytes


def test_average_params():
    rng = np.random.default_rng(15)
    p = mlp.init(rng)
    neg = p + -2.0 * p
    avg = mlp.average([p, neg])
    assert np.allclose(avg, 0.0, atol=1e-18)
    assert np.array_equal(mlp.average([p]), p)
    with pytest.raises(ValueError):
        mlp.average([])


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(16)
    p = mlp.init(rng)
    path = str(tmp_path / "model.bin")
    mlp.save_params(p, path)
    loaded = mlp.load_params(path)
    assert loaded.tobytes() == p.tobytes()


def test_checkpoint_rejects_bad_header(tmp_path):
    path = str(tmp_path / "bad.bin")
    with open(path, "wb") as f:
        f.write(b"something-else\n" + b"\x00" * 16)
    with pytest.raises(ValueError):
        mlp.load_params(path)


def test_checkpoint_rejects_a_payload_one_float_short(tmp_path):
    path = tmp_path / "short.bin"
    mlp.save_params(mlp.init(np.random.default_rng(16)), str(path))
    path.write_bytes(path.read_bytes()[:-8])
    full = mlp.PARAM_COUNT * 8
    with pytest.raises(ValueError, match=f"checkpoint payload is {full - 8} bytes, expected {full}"):
        mlp.load_params(str(path))


def test_minibatch_validation():
    with pytest.raises(ValueError):
        mlp.MiniBatch(inputs=np.zeros((0, 400)), labels=np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        mlp.MiniBatch(inputs=np.zeros((2, 400)), labels=np.zeros(3, dtype=int))


def test_layers_are_views_that_alias_theta():
    theta = mlp.init(np.random.default_rng(17))
    views = mlp.layers(theta)
    assert [v.shape for v in views] == LAYER_SHAPES
    assert all(np.shares_memory(v, theta) for v in views)
    views[3][5] = 42.0
    views[4][1, 2] = -7.0
    assert theta[64 * 400 + 64 + 32 * 64 + 5] == 42.0
    assert theta[64 * 400 + 64 + 32 * 64 + 32 + 1 * 32 + 2] == -7.0


def test_layers_order_is_checkpoint_payload_order(tmp_path):
    theta = np.random.default_rng(18).standard_normal(mlp.PARAM_COUNT)
    path = tmp_path / "model.bin"
    mlp.save_params(theta, str(path))
    payload = path.read_bytes().split(b"\n", 1)[1]
    blocks = np.concatenate([v.ravel() for v in mlp.layers(theta)])
    assert blocks.astype("<f8").tobytes() == payload


def reference_grad(theta, batch):
    """Per-layer backprop on copies of the blocks, with plain @."""
    W1, b1, W2, b2, W3, b3 = (v.copy() for v in mlp.layers(theta))
    X, y = batch.inputs, batch.labels
    z1 = X @ W1.T + b1
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ W2.T + b2
    a2 = np.maximum(z2, 0.0)
    z3 = a2 @ W3.T + b3
    e = np.exp(z3 - z3.max(axis=-1, keepdims=True))
    delta3 = e / e.sum(axis=-1, keepdims=True)
    delta3[np.arange(len(y)), y] -= 1.0
    delta3 /= len(y)
    delta2 = (delta3 @ W3) * (z2 > 0.0)
    delta1 = (delta2 @ W2) * (z1 > 0.0)
    return np.concatenate([(delta1.T @ X).ravel(), delta1.sum(axis=0), (delta2.T @ a1).ravel(),
                           delta2.sum(axis=0), (delta3.T @ a2).ravel(), delta3.sum(axis=0)])


@pytest.mark.parametrize("B", [1, 7, 50, 400, 2000])
def test_grad_equals_per_layer_reference_bit_for_bit(B):
    rng = np.random.default_rng(19 + B)
    theta = mlp.init(rng)
    mlp.layers(theta)[1][:] = rng.standard_normal(64)  # nonzero biases
    batch = random_batch(rng, B=B)
    assert mlp.grad(theta, batch).tobytes() == reference_grad(theta, batch).tobytes()


def test_grad_with_units_dead_on_every_row_equals_reference_bit_for_bit():
    rng = np.random.default_rng(23)
    theta = mlp.init(rng)
    W1, b1, W2, b2, _, _ = mlp.layers(theta)
    W1[5], b1[5] = 0.0, -1.0  # unit 5 of layer 1 and unit 9 of layer 2 are negative on every row
    W2[9], b2[9] = 0.0, -1.0
    batch = random_batch(rng, B=50)
    g = mlp.grad(theta, batch)
    gW1, gb1, gW2, gb2, _, _ = mlp.layers(g)
    assert not gW1[5].any() and gb1[5] == 0.0 and not gW2[9].any() and gb2[9] == 0.0
    assert g.tobytes() == reference_grad(theta, batch).tobytes()


def test_run_checkpoints_stay_distinct_and_unmodified(tiny_fleet):
    train_sets, test_sets = tiny_fleet
    cfg = ExperimentConfig(K=3, tau=2, B=10)
    result = fed.run(cfg, train_sets, test_sets, seed=4, eval_every=3, checkpoint_rounds={0, 1, 2},
                     algorithm="fgdra")
    ckpts = result.theta_checkpoints
    assert sorted(ckpts) == [0, 1, 2]
    for a, b in combinations([*ckpts.values(), result.final_theta], 2):
        assert not np.shares_memory(a, b) and a.tobytes() != b.tobytes()
    assert ckpts[0].tobytes() == mlp.init(fed.substream(4, fed._INIT)).tobytes()
    for k in (1, 2):  # a run that stops at round k ends where checkpoint k was taken
        shorter = fed.run(ExperimentConfig(K=k, tau=2, B=10), train_sets, test_sets, seed=4, eval_every=k,
                          algorithm="fgdra")
        assert ckpts[k].tobytes() == shorter.final_theta.tobytes()
