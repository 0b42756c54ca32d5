import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import pointgen.autodiff as ad
from helpers import fd_input_check, finite_difference_check
from pointgen.errors import InputError, ShapeMismatchError


def t(data, grad=True):
    return ad.Tensor(data, requires_grad=grad)


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    out = ad.matmul(t(np.eye(2)), t([[5, 6], [7, 8]]))
    assert np.array_equal(out.data, [[5, 6], [7, 8]])


def test_matmul_dot():
    out = ad.matmul(t([[1, 2]]), t([[3], [4]]))
    assert np.array_equal(out.data, [[11]])


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    out = ad.matmul(t(a), t(b)).data
    expect = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                expect[i, j] += a[i, k] * b[k, j]
    assert np.allclose(out, expect, atol=1e-12)


def test_matmul_associativity():
    rng = np.random.default_rng(1)
    a, b, c = rng.normal(size=(3, 4)), rng.normal(size=(4, 5)), rng.normal(size=(5, 2))
    left = ad.matmul(ad.matmul(t(a), t(b)), t(c)).data
    right = ad.matmul(t(a), ad.matmul(t(b), t(c))).data
    assert np.allclose(left, right, atol=1e-10)


def test_matmul_shape_error():
    with pytest.raises(ShapeMismatchError):
        ad.matmul(t(np.ones((2, 3))), t(np.ones((2, 3))))


# ---------------------------------------------------------------------------
# dense / concat / mul


def relu(x):
    """max(0, x) as a dense layer with an identity weight and a zero bias."""
    return ad.dense(x, ad.constant(np.eye(x.cols)), ad.constant(np.zeros((1, x.cols))),
                    relu=True)


def test_dense_bias_examples():
    def biased(x, b):
        return ad.dense(t(x), t(np.eye(2)), t(b), relu=False).data

    assert np.array_equal(biased([[0, 0]], [[1, 2]]), [[1, 2]])
    x = np.array([[1.0, 1.0], [2.0, 2.0]])
    assert np.array_equal(biased(x, [[0.0, 0.0]]), x)
    assert np.array_equal(biased(x, [[-1, 1]]), [[0, 2], [1, 3]])


def test_dense_shape_error():
    with pytest.raises(ShapeMismatchError):  # bias row wider than W's output
        ad.dense(t(np.ones((2, 2))), t(np.eye(2)), t(np.ones((1, 3))), relu=False)
    with pytest.raises(ShapeMismatchError):  # a bias of more than one row
        ad.dense(t(np.ones((2, 2))), t(np.eye(2)), t(np.ones((2, 2))), relu=False)
    with pytest.raises(ShapeMismatchError):  # x's width is not W's fan-in
        ad.dense(t(np.ones((2, 3))), t(np.eye(2)), t(np.ones((1, 2))), relu=False)


def test_relu_examples():
    assert np.array_equal(relu(t([[-1, 2]])).data, [[0, 2]])
    x = np.array([[0.5, 3.0]])
    assert np.array_equal(relu(t(x)).data, x)
    nan_bias = ad.constant([[np.nan, 0.0]])
    assert np.array_equal(ad.dense(t([[1.0, 1.0]]), t(np.eye(2)), nan_bias, relu=True).data,
                          [[0.0, 1.0]])


def test_relu_zero_has_zero_gradient():
    x = t([[0.0, 1.0]])
    out = relu(x)
    ad.backward(ad.cross_entropy_from_logits(out, [1]))
    assert x.grad[0, 0] == 0.0


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.integers(1, 5), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_dense_forward_is_the_plain_layer(rows, fan_in, fan_out, use_relu, seed):
    # an unconditional layer: bit for bit x @ W + b, then the relu as np.where
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(rows, fan_in))
    w = rng.normal(size=(fan_in, fan_out))
    b = rng.normal(size=(1, fan_out))
    pre = x @ w + b
    expect = np.where(pre > 0, pre, 0.0) if use_relu else pre
    got = ad.dense(t(x), t(w), t(b), relu=use_relu).data
    assert got.tobytes() == expect.tobytes()
    assert ad.dense_forward(x, w, b, use_relu).tobytes() == expect.tobytes()


@pytest.mark.parametrize("use_relu", [False, True])
def test_dense_gradients_fd(use_relu):
    rng = np.random.default_rng(9)
    params = {"x": t(rng.normal(size=(4, 3))), "w": t(rng.normal(size=(3, 5))),
              "bias": t(rng.normal(size=(1, 5)))}

    def loss():
        out = ad.dense(params["x"], params["w"], params["bias"], relu=use_relu)
        return ad.cross_entropy_from_logits(out, [0, 2, 4, 1])

    if use_relu:  # keep every pre-activation away from the kink
        pre = params["x"].data @ params["w"].data + params["bias"].data
        assert np.abs(pre).min() > 1e-3
    finite_difference_check(loss, params)


def test_concat_cols():
    assert np.array_equal(ad.concat_cols(t([[1.0]]), t([[2.0]])).data, [[1, 2]])
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(ad.concat_cols(t(a), t(np.empty((2, 0)))).data, a)
    assert np.array_equal(
        ad.concat_cols(t(a), t([[5.0], [6.0]])).data, [[1, 2, 5], [3, 4, 6]]
    )
    with pytest.raises(ShapeMismatchError):
        ad.concat_cols(t(np.ones((2, 1))), t(np.ones((3, 1))))


def test_elementwise_mul():
    a = np.array([[2.0, 3.0]])
    assert np.array_equal(ad.elementwise_mul(t(a), t(np.ones((1, 2)))).data, a)
    assert np.array_equal(ad.elementwise_mul(t(a), t(np.zeros((1, 2)))).data, [[0, 0]])
    assert np.array_equal(ad.elementwise_mul(t(a), t([[4.0, 5.0]])).data, [[8, 15]])


# ---------------------------------------------------------------------------
# cross entropy


def test_cross_entropy_uniform_is_log_width():
    loss = ad.cross_entropy_from_logits(t(np.zeros((4, 200))), [0, 7, 100, 199])
    assert abs(loss.item() - math.log(200)) < 1e-12


def test_cross_entropy_confident_is_tiny():
    logits = np.zeros((1, 10))
    logits[0, 3] = 1000.0
    assert ad.cross_entropy_from_logits(t(logits), [3]).item() < 1e-9


def test_cross_entropy_out_of_range():
    with pytest.raises(IndexError):
        ad.cross_entropy_from_logits(t(np.zeros((1, 4))), [4])


def test_cross_entropy_gradient_fd():
    rng = np.random.default_rng(2)
    x0 = rng.normal(size=(4, 6))
    fd_input_check(lambda x: ad.cross_entropy_from_logits(x, [0, 5, 2, 3]), x0)


# ---------------------------------------------------------------------------
# structural ops: gradients against finite differences

CE_TARGETS = [1, 0, 3, 2, 1]


def _loss_through(op):
    # route op output into a fixed cross entropy so the loss is scalar
    return lambda x: ad.cross_entropy_from_logits(op(x), CE_TARGETS[: op(x).rows])


@pytest.mark.parametrize(
    "op",
    [
        relu,
        ad.mean_pool_prefix,
        ad.max_pool_prefix,
        ad.shift_down,
        ad.cumsum_rows,
        lambda x: ad.elementwise_mul(x, x),
        lambda x: ad.matmul(x, ad.constant(np.linspace(-1, 1, 16).reshape(4, 4))),
    ],
)
def test_op_gradients_fd(op):
    rng = np.random.default_rng(7)
    x0 = rng.normal(size=(4, 4)) + 0.05  # keep relu away from its kink
    fd_input_check(_loss_through(op), x0)


def max_pool_argmax_loop(x):
    """Oracle: the running argmax, row by row; ties keep the earliest row."""
    n, c = x.shape
    running = np.maximum.accumulate(x, axis=0)
    argmax = np.zeros((n, c), dtype=np.int64)
    best = np.zeros(c, dtype=np.int64)
    for i in range(1, n):
        best = np.where(x[i] > running[i - 1], i, best)
        argmax[i] = best
    return argmax


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 7), st.integers(1, 4)),
              elements=st.integers(-2, 2).map(float)))
def test_max_pool_prefix_gradient_routing_matches_loop_oracle(x):
    # small integers make ties common; distinct integer upstream gradients keep sums exact
    n, c = x.shape
    g = np.arange(1.0, n * c + 1).reshape(n, c)
    xt = t(x)
    weighted = ad.elementwise_mul(ad.max_pool_prefix(xt), ad.constant(g))
    ad.backward(ad.matmul(ad.matmul(ad.constant(np.ones((1, n))), weighted),
                          ad.constant(np.ones((c, 1)))))
    expect = np.zeros_like(x)
    for (i, j), row in np.ndenumerate(max_pool_argmax_loop(x)):
        expect[row, j] += g[i, j]
    assert np.array_equal(xt.grad, expect)


# ---------------------------------------------------------------------------
# backward plumbing


def test_unused_parameter_gets_zero_gradient():
    used = t(np.ones((1, 3)))
    unused = t(np.ones((2, 2)))
    loss = ad.cross_entropy_from_logits(used, [0])
    ad.backward(loss)
    grads = ad.collect_gradients({"used": used, "unused": unused})
    assert np.array_equal(grads["unused"], np.zeros((2, 2)))
    assert np.any(grads["used"] != 0)


def test_gradient_handed_to_two_parents_is_not_shared():
    # add hands one array to both parents; a later += into one must not reach the other
    a, b = t([[1.0]]), t([[2.0]])
    ad.backward(ad.add(ad.add(a, b), a))
    assert a.grad[0, 0] == 2.0 and b.grad[0, 0] == 1.0


def test_linear_layer_closed_form_gradient():
    rng = np.random.default_rng(3)
    x = ad.constant(rng.normal(size=(5, 4)))
    w = t(rng.normal(size=(4, 3)))
    targets = [0, 1, 2, 0, 1]
    logits = ad.matmul(x, w)
    ad.backward(ad.cross_entropy_from_logits(logits, targets))
    e = np.exp(logits.data - logits.data.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    onehot = np.zeros_like(p)
    onehot[np.arange(5), targets] = 1.0
    expect = x.data.T @ ((p - onehot) / 5)
    assert np.allclose(w.grad, expect, atol=1e-12)


def test_forward_determinism():
    rng = np.random.default_rng(4)
    a, b = rng.normal(size=(5, 7)), rng.normal(size=(7, 3))
    e = np.exp(a - a.max(axis=1, keepdims=True))
    a = e / e.sum(axis=1, keepdims=True)  # softmax rows
    one = ad.matmul(t(a), t(b)).data
    two = ad.matmul(t(a), t(b)).data
    assert np.array_equal(one, two)


def test_forward_output_finite():
    rng = np.random.default_rng(5)
    x = t(rng.normal(size=(4, 4)) * 100)
    for op in (relu, ad.mean_pool_prefix, ad.cumsum_rows):
        assert np.all(np.isfinite(op(x).data))


# ---------------------------------------------------------------------------
# adam


def _scalar_param(value):
    return {"p": t([[value]])}


def test_adam_zero_gradient_no_change():
    params = _scalar_param(1.5)
    state = ad.AdamState.for_params(params)
    ad.adam_step(params, {"p": np.zeros((1, 1))}, state, lr=1e-3)
    assert params["p"].data[0, 0] == 1.5


def test_adam_first_step_size():
    # bias-corrected first step moves by ~lr for unit gradient
    params = _scalar_param(0.0)
    state = ad.AdamState.for_params(params)
    ad.adam_step(params, {"p": np.ones((1, 1))}, state, lr=1e-3)
    assert abs(params["p"].data[0, 0] - (-1e-3)) < 1e-6


def test_adam_constant_gradient_is_monotone():
    params = _scalar_param(0.0)
    state = ad.AdamState.for_params(params)
    prev = 0.0
    for _ in range(2):
        ad.adam_step(params, {"p": np.full((1, 1), 2.0)}, state, lr=1e-2)
        cur = params["p"].data[0, 0]
        assert cur < prev
        prev = cur


def test_adam_rejects_bad_shapes_and_lr():
    params = _scalar_param(0.0)
    state = ad.AdamState.for_params(params)
    with pytest.raises(ShapeMismatchError):
        ad.adam_step(params, {"p": np.zeros((2, 2))}, state, lr=1e-3)
    with pytest.raises(InputError):
        ad.adam_step(params, {"p": np.zeros((1, 1))}, state, lr=0.0)
