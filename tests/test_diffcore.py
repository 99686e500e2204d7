"""Tests for the reverse-mode autodiff core."""

import sys
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from flowseg import diffcore as dc
from flowseg.diffcore import Tensor, backward, concat, conv2d, grad_check, trace, zero_grad
from flowseg.sde import OuParams, euler_maruyama


def test_add_values():
    out = Tensor([1.0, 2.0]) + Tensor([3.0, 4.0])
    np.testing.assert_array_equal(out.data, [4.0, 6.0])


def test_scalar_broadcast_mul():
    out = Tensor([[1.0, 2.0], [3.0, 4.0]]) * 2.0
    np.testing.assert_array_equal(out.data, [[2.0, 4.0], [6.0, 8.0]])


def test_grad_check_exp_sum():
    err = grad_check(lambda t: t.exp().sum(), Tensor([0.0, 1.0]))
    assert err < 1e-6


def test_grad_check_linear_is_exact():
    err = grad_check(lambda t: (t * 3.0).sum(), Tensor([0.5, -1.5, 2.0]))
    assert err < 1e-9


def test_grad_check_unused_input_reads_exactly_zero():
    # the loss is large and ignores x[1]: its four bumped values are equal,
    # and the stencil must cancel them exactly, not leave rounding behind
    err = grad_check(lambda t: (t.slice(0, 0, 1).square() * 1e4).sum(),
                     Tensor([3.1, 1.0]))
    assert err < 1e-9


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(5, 4)) * 3.0)
    s = x.softmax(axis=1)
    np.testing.assert_allclose(s.data.sum(axis=1), 1.0, atol=1e-12)


def test_softmax_shift_invariance():
    x = np.array([[0.3, -1.2, 2.0]])
    a = Tensor(x).softmax(axis=1)
    b = Tensor(x + 100.0).softmax(axis=1)
    np.testing.assert_allclose(a.data, b.data, atol=1e-12)


def test_conv2d_identity_kernel():
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 3, 6, 6))
    w = np.zeros((3, 3, 3, 3))
    for c in range(3):
        w[c, c, 1, 1] = 1.0
    out = conv2d(Tensor(x), Tensor(w))
    np.testing.assert_allclose(out.data, x, atol=1e-14)


# The five-point Laplacian stencil: a symmetric kernel with distinct centre,
# edge and corner weights, checked against hand-written stencil values.
FIVE_POINT = np.array([[0.0, 1.0, 0.0],
                       [1.0, -4.0, 1.0],
                       [0.0, 1.0, 0.0]]).reshape(1, 1, 3, 3)


def test_conv2d_five_point_center_impulse_reproduces_stencil():
    f = np.zeros((1, 1, 3, 3))
    f[0, 0, 1, 1] = 1.0
    out = conv2d(Tensor(f), Tensor(FIVE_POINT))
    np.testing.assert_allclose(out.data[0, 0], FIVE_POINT[0, 0], atol=1e-14)


def test_conv2d_five_point_constant_field_zero_pad_boundary():
    c = 3.0
    out = conv2d(Tensor(np.full((1, 1, 5, 5), c)), Tensor(FIVE_POINT)).data[0, 0]
    np.testing.assert_allclose(out[1:-1, 1:-1], 0.0, atol=1e-12)
    assert out[0, 0] == pytest.approx(-2 * c)       # corner: two inside neighbors
    assert out[0, 2] == pytest.approx(-c)           # edge: three inside neighbors


def test_conv2d_five_point_matches_scalar_stencil_loop():
    rng = np.random.default_rng(0)
    f = rng.normal(size=(2, 1, 6, 7))
    out = conv2d(Tensor(f), Tensor(FIVE_POINT)).data
    padded = np.pad(f[:, 0], ((0, 0), (1, 1), (1, 1)))
    for b in range(2):
        for i in range(6):
            for j in range(7):
                expect = (padded[b, i, j + 1] + padded[b, i + 2, j + 1]
                          + padded[b, i + 1, j] + padded[b, i + 1, j + 2]
                          - 4 * padded[b, i + 1, j + 1])
                assert out[b, 0, i, j] == pytest.approx(expect, abs=1e-12)


def test_conv2d_five_point_is_differentiable():
    rng = np.random.default_rng(1)
    err = grad_check(lambda t: conv2d(t, Tensor(FIVE_POINT)).square().sum(),
                     Tensor(rng.normal(size=(1, 1, 5, 5))))
    assert err < 1e-4


def _conv_loops(x, w, g):
    """Scalar-loop oracle: 3x3 zero-padded correlation y of x with w, and
    the gradients of sum(y * g) with respect to x and w."""
    b, cin, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    y = np.zeros((b, w.shape[0], h, wd))
    dxp = np.zeros_like(xp)
    dw = np.zeros_like(w)
    for n in range(b):
        for o in range(w.shape[0]):
            for i in range(h):
                for j in range(wd):
                    for c in range(cin):
                        for ky in range(3):
                            for kx in range(3):
                                v = xp[n, c, i + ky, j + kx]
                                y[n, o, i, j] += w[o, c, ky, kx] * v
                                dw[o, c, ky, kx] += g[n, o, i, j] * v
                                dxp[n, c, i + ky, j + kx] += g[n, o, i, j] * w[o, c, ky, kx]
    return y, dxp[:, :, 1:-1, 1:-1], dw


# (5, 7) is a non-square plane; (2, 2) is where an 8x8 U-Net bottoms out.
@pytest.mark.parametrize("plane", [(5, 7), (2, 2)])
@pytest.mark.parametrize("cin,cout", [(1, 1), (1, 4), (3, 1), (3, 4)])
def test_conv2d_matches_loop_oracle(plane, cin, cout):
    rng = np.random.default_rng(cin * 10 + cout)
    x0 = rng.normal(size=(2, cin) + plane)
    w0 = rng.normal(size=(cout, cin, 3, 3))
    g = rng.normal(size=(2, cout) + plane)
    y_ref, dx_ref, dw_ref = _conv_loops(x0, w0, g)
    x, w = Tensor(x0, requires_grad=True), Tensor(w0, requires_grad=True)
    y = conv2d(x, w)
    backward((y * Tensor(g)).sum())
    np.testing.assert_allclose(y.data, y_ref, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(x.grad, dx_ref, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(w.grad, dw_ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("x_grad", [True, False])
def test_conv2d_backward_with_one_operand_requiring_grad(x_grad):
    rng = np.random.default_rng(5)
    x0, w0 = rng.normal(size=(2, 3, 4, 6)), rng.normal(size=(4, 3, 3, 3))
    g = rng.normal(size=(2, 4, 4, 6))
    _, dx_ref, dw_ref = _conv_loops(x0, w0, g)
    x, w = Tensor(x0, requires_grad=x_grad), Tensor(w0, requires_grad=not x_grad)
    backward((conv2d(x, w) * Tensor(g)).sum())
    grad, ref, other = (x.grad, dx_ref, w.grad) if x_grad else (w.grad, dw_ref, x.grad)
    np.testing.assert_allclose(grad, ref, rtol=1e-12, atol=1e-12)
    assert other is None


def test_conv2d_keeps_no_padded_copy_of_its_input():
    # The closure keeps x's own buffer, which x's tensor holds already, and
    # pads it again in backward; a padded copy would add (H+3)(W+2)/(HW) of x.
    rng = np.random.default_rng(6)
    x = Tensor(rng.normal(size=(4, 8, 32, 32)), requires_grad=True)
    w = Tensor(rng.normal(size=(8, 8, 3, 3)), requires_grad=True)
    tracemalloc.start()
    try:
        y = conv2d(x, w)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1.1 * y.data.nbytes, f"{held} bytes held for a {y.data.nbytes}-byte output"


def test_conv2d_forward_peak_is_padded_input_output_and_two_item_buffers():
    # Each item's taps sum in one (C_out, H*(W+2)) buffer, plus one for the
    # product, and the crop is written into a C-contiguous output: neither a
    # batch-sized accumulator nor a copy of the cropped view is made.
    rng = np.random.default_rng(6)
    b, c_in, c_out, h, wd = 4, 8, 8, 32, 32
    x = Tensor(rng.normal(size=(b, c_in, h, wd)))
    w = Tensor(rng.normal(size=(c_out, c_in, 3, 3)))
    padded = b * c_in * (h + 3) * (wd + 2) * 8
    output = b * c_out * h * wd * 8
    item_buffers = 2 * c_out * h * (wd + 2) * 8
    tracemalloc.start()
    try:
        y = conv2d(x, w)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert y.data.flags.c_contiguous
    bound = 1.1 * (padded + output + item_buffers)
    assert peak < bound, f"peak {peak} bytes against {bound:.0f}"


@pytest.mark.parametrize("cin", [1, 3])
def test_correlate_equals_a_sum_of_tap_gemms(cin):
    # one input channel takes a broadcast product in place of the rank-1
    # GEMM; both round once per product and once per add
    rng = np.random.default_rng(cin)
    x, w = rng.normal(size=(2, cin, 5, 7)), rng.normal(size=(4, cin, 3, 3))
    taps = dc._taps(x)
    ref = np.zeros((2, 4, 5 * 9))
    for i in range(2):
        for k, xk in enumerate(taps):
            ref[i] += w[:, :, k // 3, k % 3] @ xk[i]
    out = dc._correlate(taps, w, 7)
    assert out.flags.c_contiguous
    np.testing.assert_array_equal(out, ref.reshape(2, 4, 5, 9)[..., :7])


def test_conv2d_overflow_raises_without_warning():
    # +inf from the top row of taps meets -inf from the bottom row
    w = np.zeros((1, 2, 3, 3))
    w[0, :, 0, :] = 1.0
    w[0, :, 2, :] = -1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(dc.NonFiniteError, match="conv2d"):
            conv2d(Tensor(np.full((1, 2, 4, 4), 1e308)), Tensor(w))


def _unfused(c, b, *, tanh, skip):
    """The composition bias_act replaces: an add per operand, then tanh."""
    out = c + b.reshape((1, -1) + (1,) * (c.ndim - 2))
    out = out if skip is None else skip + out
    return out.tanh() if tanh else out


@pytest.mark.parametrize("form", ["conv-skip-tanh", "conv-bias", "matmul-tanh"])
def test_bias_act_is_one_node_bitwise_equal_to_the_unfused_composition(form):
    rng = np.random.default_rng(8)
    if form.startswith("conv"):
        op, shapes = conv2d, [(2, 3, 4, 5), (4, 3, 3, 3), (4,), (2, 4, 4, 5)]
    else:
        op, shapes = Tensor.matmul, [(5, 3), (3, 4), (4,), (5, 4)]
    x0, k0, b0, s0 = (rng.normal(size=shape) for shape in shapes)
    tanh, with_skip = "tanh" in form, "skip" in form
    g = Tensor(rng.normal(size=shapes[-1]))
    runs = []
    for fused in (True, False):
        x, k, b, s = (Tensor(v, requires_grad=True) for v in (x0, k0, b0, s0))
        skip = s if with_skip else None
        y = (dc.bias_act if fused else _unfused)(op(x, k), b, tanh=tanh, skip=skip)
        if fused:
            # the op output is absorbed: one node on the op's own operands
            assert y._node.parents == tuple(t._node for t in (skip,) * with_skip + (x, k, b))
            assert [n for n in trace(y) if n.backward is not None] == [y._node]
        backward((y * g).sum())
        runs.append([y.data, x.grad, k.grad, b.grad] + [s.grad] * with_skip)
    for got, ref in zip(*runs):
        np.testing.assert_array_equal(got, ref)


def test_bias_act_passes_grad_check():
    for trial in range(5):
        rng = np.random.default_rng(200 + trial)
        feat, k = Tensor(_draw(rng, (1, 2, 3, 4))), Tensor(_draw(rng, (2, 2, 3, 3)))
        bias, m, bias4 = (Tensor(_draw(rng, shape)) for shape in ((2,), (4, 4), (4,)))
        cases = [
            # the residual form: one input is both the conv input and the skip
            ("4-D skip tanh", lambda t: dc.bias_act(conv2d(t, k), bias, tanh=True, skip=t)
             .square().sum(), _draw(rng, (1, 2, 3, 4))),
            ("4-D skip tanh, bias", lambda t: dc.bias_act(conv2d(feat, k), t, tanh=True, skip=feat)
             .square().sum(), _draw(rng, (2,))),
            ("4-D bias only", lambda t: dc.bias_act(conv2d(feat, k), t).square().sum(),
             _draw(rng, (2,))),
            # 2-D: the matmul input is the skip too, and a leaf c is kept as a parent
            ("2-D tanh", lambda t: dc.bias_act(t.matmul(m), bias4, tanh=True, skip=t)
             .square().sum(), _draw(rng, (3, 4))),
            ("2-D tanh, leaf", lambda t: dc.bias_act(t, t.sum(axis=0), tanh=True).square().sum(),
             _draw(rng, (3, 4))),
        ]
        for name, fn, x0 in cases:
            err = grad_check(fn, Tensor(x0))
            assert err < 1e-4, f"{name} trial {trial}: grad error {err}"


def test_bias_act_shape_error_names_both_shapes():
    with pytest.raises(dc.ShapeError) as exc:
        dc.bias_act(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4,))))
    msg = str(exc.value)
    assert "(2, 3)" in msg and "(4,)" in msg
    with pytest.raises(dc.ShapeError) as exc:
        dc.bias_act(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3,))),
                    skip=Tensor(np.zeros((3, 2))))
    msg = str(exc.value)
    assert "(2, 3)" in msg and "(3, 2)" in msg


def test_bias_act_overflow_errors_instead_of_saturating():
    # the sum is inf, whose tanh would read a finite 1.0
    for skip in (None, Tensor([[1.0]])):
        with np.errstate(over="ignore"), pytest.raises(dc.NonFiniteError, match="bias_act"):
            dc.bias_act(Tensor([[1e308]]), Tensor([1e308]), tanh=True, skip=skip)


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(dc.ShapeError) as exc:
        Tensor(np.zeros((2, 3))).matmul(Tensor(np.zeros((4, 5))))
    msg = str(exc.value)
    assert "(2, 3)" in msg and "(4, 5)" in msg


def test_elementwise_shape_error_names_both_shapes():
    with pytest.raises(dc.ShapeError) as exc:
        Tensor(np.zeros((2, 3))) + Tensor(np.zeros((4,)))
    msg = str(exc.value)
    assert "(2, 3)" in msg and "(4,)" in msg


def test_log_domain_error():
    with pytest.raises(dc.DomainError):
        Tensor([1.0, 0.0]).log()
    with pytest.raises(dc.DomainError):
        Tensor([-1.0]).log()


def test_div_by_zero_domain_error():
    with pytest.raises(dc.DomainError):
        Tensor([1.0]) / Tensor([0.0])


def test_exp_overflow_errors_instead_of_inf():
    with np.errstate(over="ignore"), pytest.raises(dc.NonFiniteError):
        Tensor([1000.0]).exp()


def test_backward_requires_scalar_root():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(dc.ShapeError):
        backward(x * 2.0)


def test_grads_accumulate_until_zeroed():
    x = Tensor([2.0], requires_grad=True)
    loss = (x.square()).sum()
    backward(loss)
    backward(loss)
    np.testing.assert_allclose(x.grad, [8.0])
    zero_grad([x])
    assert x.grad is None
    backward(loss)
    np.testing.assert_allclose(x.grad, [4.0])


def test_fanout_visits_each_node_once():
    # diamond graph: wrong visit counting would double contributions
    x = Tensor([1.0], requires_grad=True)
    a = x * 2.0
    b = x * 3.0
    backward((a + b).sum())
    np.testing.assert_allclose(x.grad, [5.0])


def test_same_tensor_used_twice():
    x = Tensor([3.0], requires_grad=True)
    backward((x * x).sum())
    np.testing.assert_allclose(x.grad, [6.0])


def test_trace_is_topologically_ordered():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    y = ((x.tanh() * x).softmax(axis=1) + x.square()).sum()
    order = trace(y)
    pos = {node: i for i, node in enumerate(order)}
    for node in order:
        for parent in node.parents:
            assert pos[parent] < pos[node]
    # The walk runs sum, add, softmax, mul, tanh and square, and reaches x
    # last.  Only the root, the softmax output its closure reads, the tanh
    # output that mul and its own closure read, and x keep their values.
    kept = [node.data.size > 0 for node in reversed(order)]
    assert kept == [True, False, True, False, True, False, True]
    assert order[0] is x._node and order[-1] is y._node


def _ou_path(mu, sigma, z0):
    z_t, log_w = euler_maruyama(OuParams(mu, sigma), z0, np.random.default_rng(0))
    return z_t, {"log_w": log_w}


_CONV = [(2, 3, 4, 5), (4, 3, 3, 3), (4,)]
# op: (function, operand shapes, the operands that need a gradient, the
# values that the tape keeps once the forward code drops every tensor)
_SAVES = {
    "add": (lambda a, b: a + b, [(3, 4), (4,)], "ab", set()),
    "sub": (lambda a, b: a - b, [(3, 4), (4,)], "ab", set()),
    "neg": (lambda a: -a, [(3, 4)], "a", set()),
    "reshape": (lambda a: a.reshape((4, 3)), [(3, 4)], "a", set()),
    "transpose": (lambda a: a.transpose((1, 0)), [(3, 4)], "a", set()),
    "broadcast": (lambda a: a.broadcast((3, 4)), [(1, 4)], "a", set()),
    "slice": (lambda a: a.slice(1, 1, 3), [(3, 4)], "a", set()),
    "concat": (lambda a, b: concat([a, b], axis=0), [(3, 4), (2, 4)], "ab", set()),
    "sum": (lambda a: a.sum(axis=1), [(3, 4)], "a", set()),
    "tanh": (Tensor.tanh, [(3, 4)], "a", {"out"}),
    "exp": (Tensor.exp, [(3, 4)], "a", {"out"}),
    "softmax": (lambda a: a.softmax(axis=1), [(3, 4)], "a", {"out"}),
    # the conv output is absorbed; its operands stay for the conv's closure
    "bias_act tanh": (lambda a, b, c: dc.bias_act(conv2d(a, b), c, tanh=True),
                      _CONV, "abc", {"a", "b", "out"}),
    "bias_act": (lambda a, b, c: dc.bias_act(conv2d(a, b), c), _CONV, "abc", {"a", "b"}),
    "bias_act tanh, leaf": (lambda a, c: dc.bias_act(a, c, tanh=True),
                            [(3, 4), (4,)], "ab", {"out"}),
    "mul": (lambda a, b: a * b, [(3, 4), (4,)], "ab", {"a", "b"}),
    "mul, a only": (lambda a, b: a * b, [(3, 4), (4,)], "a", {"b"}),
    "mul, b only": (lambda a, b: a * b, [(3, 4), (4,)], "b", {"a"}),
    "div": (lambda a, b: a / b, [(3, 4), (4,)], "ab", {"a", "b"}),
    "div, a only": (lambda a, b: a / b, [(3, 4), (4,)], "a", {"b"}),
    "div, b only": (lambda a, b: a / b, [(3, 4), (4,)], "b", {"a", "b"}),
    "matmul": (Tensor.matmul, [(3, 4), (4, 2)], "ab", {"a", "b"}),
    "matmul, a only": (Tensor.matmul, [(3, 4), (4, 2)], "a", {"b"}),
    "matmul, b only": (Tensor.matmul, [(3, 4), (4, 2)], "b", {"a"}),
    "conv2d": (conv2d, _CONV[:2], "ab", {"a", "b"}),
    "conv2d, x only": (conv2d, _CONV[:2], "a", {"b"}),
    "conv2d, w only": (conv2d, _CONV[:2], "b", {"a"}),
    "log": (Tensor.log, [(3, 4)], "a", {"a"}),
    "square": (Tensor.square, [(3, 4)], "a", {"a"}),
    # no increment and no state: the closure keeps one array (tested below)
    "ou path": (_ou_path, [(2, 3), (2, 3), (2, 3)], "abc", set()),
}


@pytest.mark.parametrize("op", list(_SAVES))
def test_each_closure_keeps_only_what_its_math_reads(op):
    fn, shapes, grads, kept = _SAVES[op]
    rng = np.random.default_rng(0)
    operands = [Tensor(rng.uniform(0.5, 1.5, size=shape), requires_grad=name in grads)
                for name, shape in zip("abc", shapes)]
    out = fn(*operands)
    out, extras = out if isinstance(out, tuple) else (out, {})
    values = {**{name: t.data for name, t in zip("abc", operands)}, "out": out.data, **extras}
    refs = {name: weakref.ref(v) for name, v in values.items()}
    loss = out.sum()  # sum keeps nothing
    del operands, out, extras, values
    assert {name for name, r in refs.items() if r() is not None} == kept
    backward(loss)  # the kept values are all the walk reads


@pytest.mark.parametrize("drifted", [True, False])
@pytest.mark.parametrize("n_steps", [1, 8])
def test_ou_closure_keeps_one_array_of_the_broadcast_shape(n_steps, drifted):
    rng = np.random.default_rng(0)
    mu = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
    sigma = Tensor(rng.uniform(0.5, 1.5, size=(2, 1)), requires_grad=True)
    z0 = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    z_t, _ = euler_maruyama(OuParams(mu, sigma, n_steps=n_steps), z0, rng, drifted)
    cells = [c.cell_contents for c in z_t._node.backward.__closure__]
    assert [a.shape for a in cells if isinstance(a, np.ndarray)] == [(2, 3)]


def test_concurrent_backward_keeps_grads_per_thread():
    def accumulate(seed):
        x = Tensor(np.random.default_rng(seed).normal(size=3), requires_grad=True)
        for _ in range(300):
            backward(((x * x).tanh() * x).sum())
        return x.grad

    results, errors = {}, []

    def work(seed):
        try:
            results[seed] = accumulate(seed)
        except Exception as exc:  # reported below, with the thread's seed
            errors.append((seed, exc))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in (1, 2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(old)
    assert errors == []
    for seed in (1, 2):
        np.testing.assert_array_equal(results[seed], accumulate(seed))
    x = Tensor(np.ones(3), requires_grad=True)
    backward((x * x).sum())
    np.testing.assert_array_equal(x.grad, [2.0, 2.0, 2.0])


def test_backward_leaves_no_grad_on_interior_nodes():
    def build(xd, wd):
        x, w = Tensor(xd, requires_grad=True), Tensor(wd, requires_grad=True)
        h = (x @ w).tanh()
        sq = h * h
        return (sq + h.exp()).sum(), sq, x, w

    rng = np.random.default_rng(5)
    xd, wd = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    loss, sq, x, w = build(xd, wd)
    interior = [n for n in trace(loss) if n.backward is not None]

    def pending():
        return [n for n in interior if n.grad is not None]

    backward(loss)
    assert pending() == []

    # a closure that raises partway leaves no stale gradient behind
    closure, seen = sq._backward, []

    def fail(g):
        seen.extend(pending())
        raise RuntimeError("closure failed")

    sq._backward = fail
    with pytest.raises(RuntimeError):
        backward(loss)
    assert seen, "the walk should stop with gradients still pending"
    assert pending() == []

    # a later clean walk of the same graph matches a fresh graph bitwise
    sq._backward = closure
    zero_grad([x, w])
    backward(loss)
    fresh_loss, _, fresh_x, fresh_w = build(xd, wd)
    backward(fresh_loss)
    np.testing.assert_array_equal(x.grad, fresh_x.grad)
    np.testing.assert_array_equal(w.grad, fresh_w.grad)


def test_max_ties_route_to_first():
    x = Tensor([2.0, 5.0, 5.0], requires_grad=True)
    backward(x.max(axis=0))
    np.testing.assert_array_equal(x.grad, [0.0, 1.0, 0.0])


def test_value_buffers_are_frozen():
    x = Tensor([1.0, 2.0])
    with pytest.raises(ValueError):
        x.data[0] = 5.0
    y = x + 1.0
    with pytest.raises(ValueError):
        y.data[0] = 5.0


def test_detach_blocks_gradient():
    x = Tensor([1.0], requires_grad=True)
    loss = (x.detach() * x).sum()
    backward(loss)
    np.testing.assert_allclose(x.grad, [1.0])


def test_transpose_values_and_inverse():
    x = Tensor(np.arange(24.0).reshape(2, 3, 4))
    y = x.transpose((2, 0, 1))
    assert y.shape == (4, 2, 3)
    np.testing.assert_array_equal(y.data, x.data.transpose(2, 0, 1))
    back = y.transpose((1, 2, 0))
    np.testing.assert_array_equal(back.data, x.data)
    with pytest.raises(dc.ShapeError):
        x.transpose((0, 1))
    with pytest.raises(dc.ShapeError):
        x.transpose((0, 0, 1))


def test_backward_determinism():
    def run():
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        loss = (x.matmul(w).tanh().square()).mean()
        backward(loss)
        return loss.item(), x.grad.copy(), w.grad.copy()

    l1, gx1, gw1 = run()
    l2, gx2, gw2 = run()
    assert l1 == l2
    np.testing.assert_array_equal(gx1, gx2)
    np.testing.assert_array_equal(gw1, gw2)


def _draw(rng, shape, low=-2.0, high=2.0):
    return rng.uniform(low, high, size=shape)


def _op_cases(rng):
    """One (name, fn, x0) grad-check case per primitive op, random data."""
    m = Tensor(_draw(rng, (3, 4)))
    denom = Tensor(np.sign(_draw(rng, (3, 4))) * rng.uniform(0.4, 2.0, (3, 4)))
    w34 = Tensor(_draw(rng, (4, 2)))
    k = Tensor(_draw(rng, (2, 2, 3, 3)) * 0.4)
    img = _draw(rng, (1, 2, 5, 5))
    spread = _draw(rng, (3, 4)) * 2.0
    m3 = Tensor(_draw(rng, (2, 3, 4)))
    return [
        ("add", lambda t: (t + m).sum(), _draw(rng, (3, 4))),
        ("sub", lambda t: (t - m).square().sum(), _draw(rng, (3, 4))),
        ("mul", lambda t: (t * m).sum(), _draw(rng, (3, 4))),
        ("div", lambda t: (t / denom).sum(), _draw(rng, (3, 4))),
        ("div_denom", lambda t: (m / (t * t + 1.0)).sum(), _draw(rng, (3, 4))),
        ("neg", lambda t: (-t).tanh().sum(), _draw(rng, (3, 4))),
        ("exp", lambda t: t.exp().sum(), _draw(rng, (3, 4))),
        ("log", lambda t: t.log().sum(), rng.uniform(0.2, 2.0, (3, 4))),
        ("tanh", lambda t: t.tanh().square().sum(), _draw(rng, (3, 4))),
        ("square", lambda t: t.square().sum(), _draw(rng, (3, 4))),
        ("matmul", lambda t: t.matmul(w34).square().sum(), _draw(rng, (3, 4))),
        ("matmul_rhs", lambda t: m.matmul(t).sum(), _draw(rng, (4, 2))),
        ("conv2d", lambda t: conv2d(t, k).square().mean(), img),
        ("conv2d_kernel", lambda t: conv2d(Tensor(img), t).square().mean(),
         _draw(rng, (2, 2, 3, 3)) * 0.4),
        ("sum_axis", lambda t: t.sum(axis=1).square().sum(), _draw(rng, (3, 4))),
        ("mean_axis", lambda t: t.mean(axis=0).square().sum(), _draw(rng, (3, 4))),
        ("broadcast", lambda t: (t.broadcast((5, 3, 4)) * 0.3).square().sum(),
         _draw(rng, (3, 4))),
        ("reshape", lambda t: t.reshape(4, 3).softmax(axis=1).square().sum(),
         _draw(rng, (3, 4))),
        ("transpose", lambda t: (t.transpose((2, 0, 1)) * m3).square().sum(),
         _draw(rng, (3, 4, 2))),
        ("concat", lambda t: concat([t, m], axis=0).square().sum(), _draw(rng, (3, 4))),
        ("slice", lambda t: t.slice(1, 1, 3).square().sum(), _draw(rng, (3, 4))),
        ("softmax", lambda t: t.softmax(axis=1).square().sum(), spread),
        ("max", lambda t: t.max(axis=1).sum(), spread),
    ]


def test_all_primitive_ops_pass_grad_check():
    # 5 random trials per op, > 100 checks total, tolerance 1e-4
    for trial in range(5):
        rng = np.random.default_rng(100 + trial)
        for name, fn, x0 in _op_cases(rng):
            if name == "max":
                # keep values apart so central differences do not cross a tie
                x0 = np.round(x0 * 4.0) + rng.uniform(-0.2, 0.2, x0.shape)
            err = grad_check(fn, Tensor(x0))
            assert err < 1e-4, f"{name} trial {trial}: grad error {err}"


def test_grad_check_full_composite_on_8x8():
    rng = np.random.default_rng(42)
    k1 = Tensor(rng.normal(size=(3, 1, 3, 3)) * 0.3)
    k2 = Tensor(rng.normal(size=(2, 3, 3, 3)) * 0.3)

    def fn(t):
        h = conv2d(t, k1).tanh()
        out = conv2d(h, k2).softmax(axis=1)
        return (out.square()).mean() + out.slice(1, 0, 1).sum() * 0.01

    err = grad_check(fn, Tensor(rng.normal(size=(1, 1, 8, 8))))
    assert err < 1e-4
