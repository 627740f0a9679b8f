"""Reverse-mode automatic differentiation over numpy arrays.

A Tensor wraps an ndarray plus an optional gradient. Every operation records
a backward closure on its output node; calling ``backward()`` on a scalar
walks the recorded graph once in reverse topological order, accumulates
gradients into the leaves, and frees the graph. A parameter of a
``ParameterSet`` gets its gradient in place: the op that feeds it writes it
straight into the parameter's slice of the set's flat gradient buffer.

Arithmetic runs in float64 by default (the precision the numeric checks
assume); models may opt into float32 per tensor for training speed.

The nodes: ``add``, ``mul``, ``scaled_add``, ``gelu``, ``swish``, ``glu``,
``matmul`` (with an optional bias), ``reshape``, ``concat``, ``narrow``,
``embedding``, ``log_softmax``, ``layer_norm``, ``instance_norm``,
``cross_entropy``, ``attention``, ``conv1d``, ``depthwise_conv1d``,
``rnn_tanh`` and ``joint_tanh``. Most stand for a chain of smaller nodes,
one node per layer, since at the models' shapes a node costs more than its
arithmetic. A fused node runs the chain's numpy operations on the same
operands in the same order and sums each input's gradient terms in the
chain's order, so at each call site it is bit-identical to the chain, which
``tests/oracles.py`` keeps and tests it against byte for byte.
"""

import math
from contextlib import contextmanager

import numpy as np

_FLOAT_DTYPES = (np.float32, np.float64)

_grad_enabled = True
_debug_checks = False


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference / frozen passes)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


@contextmanager
def debug_checks():
    """Check every operation's output for NaN/Inf inside the block."""
    global _debug_checks
    prev = _debug_checks
    _debug_checks = True
    try:
        yield
    finally:
        _debug_checks = prev


class Tensor:
    """N-dimensional array with an optional gradient slot. A parameter of a
    `ParameterSet` also holds `_grad_buf`, its slice of the set's flat
    gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_grad_buf")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = np.ascontiguousarray(arr, dtype=dtype)
        elif arr.dtype not in _FLOAT_DTYPES:
            arr = np.ascontiguousarray(arr, dtype=np.float64)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None
        self._grad_buf = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"

    # arithmetic sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar; frees the graph afterwards."""
        if self.data.size != 1:
            raise ValueError(f"backward requires a scalar, got shape {self.data.shape}")
        topo = _toposort(self)
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward()
            if node._parents:
                # interior node: release tape entry and buffer
                node._backward = None
                node._parents = ()
                node.grad = None


def _toposort(root: Tensor):
    """Iterative post-order over the parent DAG (graphs can be deep)."""
    topo = []
    visited = {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        for p in parents:
            if id(p) not in visited:
                visited.add(id(p))
                stack.append((p, iter(p._parents)))
                break
        else:
            topo.append(node)
            stack.pop()
    return topo


def _check_finite(data: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(data)):
        raise FloatingPointError(f"non-finite values produced by '{op}'")


def _node(data: np.ndarray, parents) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
    return out


def _finish(out: Tensor, backward, op: str) -> Tensor:
    if _debug_checks:
        _check_finite(out.data, op)
    if out._parents:
        out._backward = backward
    return out


def _accum(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    """Add `g` into `t`'s gradient. `owned` promises that nothing else
    references `g` (a temporary of the op, or its out.grad at its last use),
    so a first gradient keeps an array of `t`'s dtype instead of a copy. The
    ops that feed parameters write a parameter's first gradient into its
    `_grad_buf` instead, through `_accum_into`; `adam_step` copies one that
    landed elsewhere."""
    if not t.requires_grad:
        return
    if t.grad is None:
        if owned and isinstance(g, np.ndarray) and g.dtype == t.data.dtype:
            t.grad = g
        else:
            t.grad = np.array(g, dtype=t.data.dtype)
    else:
        t.grad += g


def _accum_into(t: Tensor, fn, *args, **kwargs) -> None:
    """Add ``fn(*args, **kwargs)``, a new array of `t`'s shape and dtype, into
    `t`'s gradient. A parameter's first gradient is written by `fn` into its
    slice of the flat gradient buffer (``out=t._grad_buf``), so it is
    computed once and never copied; numpy writes the same bits there as into
    a new array."""
    if not t.requires_grad:
        return
    if t.grad is None and t._grad_buf is not None:
        fn(*args, **kwargs, out=t._grad_buf)
        t.grad = t._grad_buf
    else:
        _accum(t, fn(*args, **kwargs), owned=True)


def _sum_rows(g: np.ndarray, out=None) -> np.ndarray:
    """`g` summed over every axis but the last: ``_unbroadcast(g, g.shape[-1:])``."""
    return np.add.reduce(g, axis=tuple(range(g.ndim - 1)), out=out)


def _scatter(like: np.ndarray, idx, values, repeats: bool = False, out=None) -> np.ndarray:
    """Zeros shaped like `like` (or `out`, zeroed) with `values` put at `idx`,
    or added there when `repeats`: an index may repeat."""
    if out is None:
        out = np.zeros_like(like)
    else:
        out.fill(0)
    if repeats:
        np.add.at(out, idx, values)
    else:
        out[idx] = values
    return out


def _coerce(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == tuple(shape):
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise and broadcasting ops


def add(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    out = _node(a.data + b.data, (a, b))

    def backward():
        _accum(a, _unbroadcast(out.grad, a.data.shape))
        _accum(b, _unbroadcast(out.grad, b.data.shape), owned=True)  # out.grad's last use

    return _finish(out, backward, "add")


def scaled_add(x: Tensor, f: Tensor, scale: float) -> Tensor:
    """x + f * scale as one node (the chain ``add(x, mul(f, scale))``)."""
    c = np.asarray(scale, dtype=f.data.dtype)
    out = _node(x.data + f.data * c, (x, f))

    def backward():
        _accum(f, out.grad * c, owned=True)
        _accum(x, out.grad, owned=True)

    return _finish(out, backward, "scaled_add")


def mul(a: Tensor, b) -> Tensor:
    b = _coerce(b, a)
    out = _node(a.data * b.data, (a, b))

    def backward():
        if a.requires_grad:
            _accum(a, _unbroadcast(out.grad * b.data, a.data.shape), owned=True)
        if b.requires_grad:
            _accum(b, _unbroadcast(out.grad * a.data, b.data.shape), owned=True)

    return _finish(out, backward, "mul")


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(a: Tensor) -> Tensor:
    """tanh-form GELU (smooth, so finite-difference checks behave) as one node.

    The cube is two multiplications because numpy's float power is about a
    hundred times slower; the backward reuses x**2 and the tanh.
    """
    x = a.data
    x2 = x * x
    th = np.tanh(_GELU_C * (x + _GELU_A * x2 * x))
    out = _node(0.5 * x * (1.0 + th), (a,))

    def backward():
        slope = _GELU_C * (1.0 + 3.0 * _GELU_A * x2)
        _accum(a, out.grad * (0.5 * (1.0 + th) + 0.5 * x * (1.0 - th * th) * slope),
               owned=True)

    return _finish(out, backward, "gelu")


def swish(a: Tensor) -> Tensor:
    """x * sigmoid(x) as one node (the chain ``mul(a, sigmoid(a))``)."""
    x = a.data
    s = 1.0 / (1.0 + np.exp(-x))
    out = _node(x * s, (a,))

    def backward():
        g = out.grad  # the mul's term plus the sigmoid's
        _accum(a, g * s + g * x * s * (1.0 - s), owned=True)

    return _finish(out, backward, "swish")


def glu(a: Tensor) -> Tensor:
    """The first half of the last axis times the sigmoid of the second half,
    as one node (the chain of two ``narrow``s, a ``sigmoid`` and a ``mul``)."""
    x = a.data
    d = x.shape[-1] // 2
    if x.shape[-1] != 2 * d:
        raise ValueError(f"glu needs an even last axis, got {x.shape[-1]}")
    lin = x[..., :d]
    s = 1.0 / (1.0 + np.exp(-x[..., d:]))
    out = _node(lin * s, (a,))

    def backward():
        g = out.grad
        # added into zeros, as the narrows' zero-padded gradients were, so
        # even the sign of a zero is the chain's
        ga = np.zeros_like(x)
        ga[..., :d] += g * s
        ga[..., d:] += g * lin * s * (1.0 - s)
        _accum(a, ga, owned=True)

    return _finish(out, backward, "glu")


# ---------------------------------------------------------------------------
# shape ops


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """a @ b, plus a 1-D `bias` over the last axis if given, as one node (the
    chain ``add(matmul(a, b), bias)``)."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul requires tensors with ndim >= 2")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(
            f"matmul shape mismatch: {a.data.shape} x {b.data.shape}"
        )
    y = np.matmul(a.data, b.data)
    if bias is not None:
        if bias.data.shape != y.shape[-1:] or bias.data.dtype != y.dtype:
            raise ValueError(f"matmul bias {bias.data.shape} {bias.data.dtype} does not "
                             f"match the product's last axis {y.shape[-1:]} {y.dtype}")
        y += bias.data
    out = _node(y, (a, b) if bias is None else (a, b, bias))

    def backward():
        if bias is not None:
            _accum_into(bias, _sum_rows, out.grad)
        if a.requires_grad:
            _accum(a, _unbroadcast(np.matmul(out.grad, np.swapaxes(b.data, -1, -2)),
                                   a.data.shape), owned=True)
        if out.grad.ndim == 2:  # a 2-D product: b's gradient has b's shape
            _accum_into(b, np.matmul, a.data.T, out.grad)
        elif b.requires_grad:
            _accum(b, _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), out.grad),
                                   b.data.shape), owned=True)

    return _finish(out, backward, "matmul")


def reshape(a: Tensor, shape) -> Tensor:
    out = _node(a.data.reshape(shape), (a,))

    def backward():
        _accum(a, out.grad.reshape(a.data.shape), owned=True)  # out.grad's last use

    return _finish(out, backward, "reshape")


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ValueError("concat requires at least one tensor")
    out = _node(np.concatenate([t.data for t in tensors], axis=axis), tensors)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward():
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * out.grad.ndim
            idx[axis] = slice(lo, hi)
            _accum(t, out.grad[tuple(idx)])

    return _finish(out, backward, "concat")


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    idx = [slice(None)] * a.data.ndim
    idx[axis] = slice(start, start + length)
    idx = tuple(idx)
    out = _node(a.data[idx], (a,))

    def backward():
        _accum_into(a, _scatter, a.data, idx, out.grad)

    return _finish(out, backward, "narrow")


def embedding(table: Tensor, ids) -> Tensor:
    """Gather rows of `table` by integer index; backward scatter-adds, or
    just assigns when no id repeats."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ValueError("embedding ids must be 1-D")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise ValueError("embedding id out of range")
    out = _node(table.data[ids], (table,))
    distinct = bool(out._parents) and np.bincount(ids).max(initial=0) <= 1

    def backward():
        _accum_into(table, _scatter, table.data, ids, out.grad, not distinct)

    return _finish(out, backward, "embedding")


# ---------------------------------------------------------------------------
# normalization and losses


def _mean(x: np.ndarray, axis: int) -> np.ndarray:
    """``x.mean(axis, keepdims=True)`` bit for bit without its Python wrapper
    (a float32 quotient is the rounded float64 one that ``mean`` makes)."""
    s = np.add.reduce(x, axis=axis, keepdims=True)
    s /= x.shape[axis]
    return s


def _sum_last(x: np.ndarray) -> np.ndarray:
    """``np.add.reduce(x, axis=-1)`` bit for bit, and several times faster
    along a short axis: elementwise adds of the last axis's slices in the
    order of numpy's pairwise sum. Below 8 elements that is a running sum
    from 0; from 8 to 15 it is a fixed tree over the first 8, then the rest
    in turn, then + 0 (the reduction's identity, which turns -0 into 0).
    Longer or non-contiguous axes, where numpy's loop is as fast or its order
    differs, go to numpy."""
    n = x.shape[-1]
    if n >= 16 or not x.flags.c_contiguous:
        return np.add.reduce(x, axis=-1)
    c = [x[..., i] for i in range(n)]
    if n < 8:
        s = c[0] + 0.0
        for ci in c[1:]:
            s += ci
        return s
    s = ((c[0] + c[1]) + (c[2] + c[3])) + ((c[4] + c[5]) + (c[6] + c[7]))
    for ci in c[8:]:
        s += ci
    s += 0.0
    return s


def log_softmax(a: Tensor) -> Tensor:
    """Log-softmax over the last axis as one node."""
    x = a.data
    if x.shape[-1] == 0:
        raise ValueError("log_softmax over an empty axis")
    # the row max by elementwise passes over the last axis's slices: a max is
    # exact in any order, and numpy's along a short axis costs ten times more
    m = x[..., 0].copy()
    for i in range(1, x.shape[-1]):
        np.maximum(m, x[..., i], out=m)
    shifted = x - m[..., None]
    lse = np.log(_sum_last(np.exp(shifted)))[..., None]
    y = shifted - lse
    out = _node(y, (a,))

    def backward():
        g = out.grad
        _accum(a, g - np.exp(y) * _sum_last(g)[..., None], owned=True)

    return _finish(out, backward, "log_softmax")


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Per-vector normalization over the last axis, then affine, as one node."""
    if gamma.data.shape != (x.data.shape[-1],) or beta.data.shape != (x.data.shape[-1],):
        raise ValueError("layer_norm affine parameters must match the last axis")
    centered = x.data - _mean(x.data, -1)
    var = _mean(centered * centered, -1)
    inv = 1.0 / np.sqrt(var + eps)
    y = centered * inv
    out = _node(y * gamma.data + beta.data, (x, gamma, beta))

    def backward():
        g = out.grad
        _accum_into(beta, _sum_rows, g)
        _accum_into(gamma, _sum_rows, g * y)
        g = g * gamma.data
        gm = _mean(g, -1)
        gy = _mean(g * y, -1)
        _accum(x, (g - gm - y * gy) * inv, owned=True)

    return _finish(out, backward, "layer_norm")


def instance_norm(x: Tensor, gamma: Tensor, beta: Tensor, lengths=None,
                  eps: float = 1e-5) -> Tensor:
    """Per-channel normalization over time of a (time, channels) tensor, then
    affine, as one node. Statistics are taken over the rows of each segment
    (`lengths`, as in `attention`) only; no batch state is involved."""
    if x.data.ndim != 2:
        raise ValueError("instance_norm expects a (time, channels) tensor")
    t, c = x.data.shape
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ValueError("instance_norm affine parameters must match the channel axis")
    bounds = _segment_bounds(lengths, t, "instance_norm")
    y = np.empty_like(x.data)
    invs = []
    for lo, hi in bounds:
        seg = x.data[lo:hi]
        centered = seg - _mean(seg, 0)
        inv = 1.0 / np.sqrt(_mean(centered * centered, 0) + eps)
        y[lo:hi] = centered * inv
        invs.append(inv)
    out = _node(y * gamma.data + beta.data, (x, gamma, beta))

    def backward():
        g = out.grad
        _accum_into(beta, np.add.reduce, g, axis=0)
        _accum_into(gamma, np.add.reduce, g * y, axis=0)
        g = g * gamma.data
        gx = np.empty_like(g)
        for (lo, hi), inv in zip(bounds, invs):
            gs, ys = g[lo:hi], y[lo:hi]
            gm = _mean(gs, 0)
            gy = _mean(gs * ys, 0)
            gx[lo:hi] = (gs - gm - ys * gy) * inv
        _accum(x, gx, owned=True)

    return _finish(out, backward, "instance_norm")


def _segment_bounds(lengths, rows: int, op: str):
    """(start, stop) row ranges of consecutive segments of the given lengths;
    None is one segment over all `rows`."""
    if lengths is None:
        return [(0, rows)]
    lengths = [int(n) for n in lengths]
    if not lengths or min(lengths) <= 0 or sum(lengths) != rows:
        raise ValueError(f"{op}: segment lengths {lengths} must be positive and sum to "
                         f"the {rows} rows")
    ends = np.cumsum(lengths).tolist()
    return list(zip([0] + ends[:-1], ends))


def cross_entropy(logits: Tensor, targets, lengths=None) -> Tensor:
    """Mean negative log-likelihood over the rows. With `lengths` the rows are
    consecutive segments (a packed batch), and the value is the mean over
    segments of each segment's mean over its rows."""
    if logits.data.ndim != 2 or logits.data.shape[0] == 0:
        raise ValueError("cross_entropy expects (n, vocab) logits with n > 0")
    n, v = logits.data.shape
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (n,):
        raise ValueError("targets must have one class id per logit row")
    if targets.min() < 0 or targets.max() >= v:
        raise ValueError("target id out of range")
    bounds = _segment_bounds(lengths, n, "cross_entropy")

    dtype = logits.data.dtype
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1))
    nll = lse - shifted[np.arange(n), targets]
    means = [nll[lo:hi].mean() for lo, hi in bounds]
    inv = np.asarray(1.0 / len(bounds), dtype=dtype)
    out = _node(np.asarray(sum(means[1:], means[0]) * inv, dtype=dtype), (logits,))
    counts = [hi - lo for lo, hi in bounds]
    row_counts = np.repeat(counts, counts).astype(dtype)[:, None]

    def backward():
        probs = np.exp(shifted - lse[:, None])
        probs[np.arange(n), targets] -= 1.0
        _accum(logits, out.grad * inv * probs / row_counts, owned=True)

    return _finish(out, backward, "cross_entropy")


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, lengths=None,
              kv_lengths=None) -> Tensor:
    """Multi-head scaled dot-product attention on (time, dim) tensors as one
    node. With `lengths`, q, k and v hold consecutive segments of those many
    rows (a packed batch) and each segment attends only within itself; with
    `kv_lengths` too, the keys and values are segmented by those instead (the
    i-th query segment attends to the i-th key segment)."""
    tq, d = q.data.shape
    tk = k.data.shape[0]
    if d % heads != 0:
        raise ValueError(f"model dim {d} not divisible by {heads} heads")
    if k.data.shape != (tk, d) or v.data.shape != (tk, d):
        raise ValueError("key/value shape mismatch")
    q_bounds = _segment_bounds(lengths, tq, "attention queries")
    kv_bounds = _segment_bounds(lengths if kv_lengths is None else kv_lengths, tk,
                                "attention keys")
    if len(q_bounds) != len(kv_bounds):
        raise ValueError(f"attention: {len(q_bounds)} query segments but "
                         f"{len(kv_bounds)} key segments")
    dh = d // heads
    scale = np.asarray(1.0 / math.sqrt(dh), dtype=q.data.dtype)

    def split(x, lo, hi):  # rows lo:hi of (time, d) -> (heads, hi - lo, dh) view
        return np.transpose(x[lo:hi].reshape(hi - lo, heads, dh), (1, 0, 2))

    heads_views, weights, mixed = [], [], []
    for (qlo, qhi), (klo, khi) in zip(q_bounds, kv_bounds):
        qh, kh, vh = split(q.data, qlo, qhi), split(k.data, klo, khi), split(v.data, klo, khi)
        w = np.matmul(qh, np.transpose(kh, (0, 2, 1)))
        w *= scale
        w -= w.max(axis=-1, keepdims=True)
        np.exp(w, out=w)
        w /= w.sum(axis=-1, keepdims=True)
        mixed.append(np.transpose(np.matmul(w, vh), (1, 0, 2)).reshape(qhi - qlo, d))
        heads_views.append((qh, kh, vh))
        weights.append(w)
    out = _node(np.concatenate(mixed), (q, k, v))

    def backward():
        gq, gk, gv = [], [], []
        for (lo, hi), (qh, kh, vh), w in zip(q_bounds, heads_views, weights):
            gm = split(out.grad, lo, hi)
            gw = np.matmul(gm, np.swapaxes(vh, -1, -2))
            gvh = np.matmul(np.swapaxes(w, -1, -2), gm)
            gs = (gw - (gw * w).sum(axis=-1, keepdims=True)) * w * scale
            gq.append(np.transpose(np.matmul(gs, kh), (1, 0, 2)).reshape(hi - lo, d))
            gkt = np.matmul(np.swapaxes(qh, -1, -2), gs)
            gk.append(np.transpose(gkt, (2, 0, 1)).reshape(-1, d))
            gv.append(np.transpose(gvh, (1, 0, 2)).reshape(-1, d))
        # v, k, q: attention_composite's order, so q = k = v on one tensor
        # sums its three gradients bit-identically
        _accum(v, np.concatenate(gv), owned=True)
        _accum(k, np.concatenate(gk), owned=True)
        _accum(q, np.concatenate(gq), owned=True)

    return _finish(out, backward, "attention")


def mha(params, prefix: str, x: Tensor, kv: Tensor, heads: int, lengths=None,
        kv_lengths=None) -> Tensor:
    """Multi-head attention layer: queries from `x`, keys and values from `kv`
    (`x` itself for self-attention), through the `<prefix>.w{q,k,v,o}` maps in
    `params` and the biases `<prefix>.b{q,v,o}`. Keys have no bias: it would
    add one score per query row, which the softmax cancels. `lengths` and
    `kv_lengths` segment a packed batch as in `attention`."""

    def proj(t, m):
        return matmul(t, params[f"{prefix}.w{m}"], params[f"{prefix}.b{m}"])

    keys = matmul(kv, params[f"{prefix}.wk"])
    mixed = attention(proj(x, "q"), keys, proj(kv, "v"), heads, lengths, kv_lengths)
    return proj(mixed, "o")


# ---------------------------------------------------------------------------
# temporal convolutions


def conv1d(x: Tensor, w: Tensor, b: Tensor, stride: int = 1) -> Tensor:
    """1-D convolution over time, no padding. x:(T,Din) w:(K,Din,Dout) b:(Dout,)."""
    t, din = x.data.shape
    kk, win, dout = w.data.shape
    if win != din:
        raise ValueError(f"conv1d channel mismatch: input {din}, weight {win}")
    if t < kk:
        raise ValueError(f"conv1d input length {t} shorter than kernel {kk}")
    t_out = (t - kk) // stride + 1
    y = np.tile(b.data, (t_out, 1)).astype(x.data.dtype)
    for j in range(kk):
        y += np.matmul(x.data[j : j + (t_out - 1) * stride + 1 : stride], w.data[j])
    out = _node(y, (x, w, b))

    def backward():
        g = out.grad
        rows = [slice(j, j + (t_out - 1) * stride + 1, stride) for j in range(kk)]
        if x.requires_grad:
            gx = np.zeros_like(x.data)
            for j, sl in enumerate(rows):
                gx[sl] += np.matmul(g, w.data[j].T)
            _accum(x, gx, owned=True)

        def kernel_grad(out=None):  # one tap's slice at a time
            out = np.empty_like(w.data) if out is None else out
            for j, sl in enumerate(rows):
                np.matmul(x.data[sl].T, g, out=out[j])
            return out

        _accum_into(w, kernel_grad)
        _accum_into(b, np.add.reduce, g, axis=0)

    return _finish(out, backward, "conv1d")


def depthwise_conv1d(x: Tensor, w: Tensor, lengths=None) -> Tensor:
    """Per-channel 1-D convolution with same padding, x:(T,D) w:(K,D). It has
    no bias, since every caller normalises each channel right after. With
    `lengths` (as in `attention`), each segment is zero-padded at its own
    edges, so its rows are those it would get alone."""
    t, d = x.data.shape
    kk = w.data.shape[0]
    if kk % 2 == 0:
        raise ValueError("depthwise kernel width must be odd")
    if w.data.shape != (kk, d):
        raise ValueError("depthwise weight shape mismatch")
    bounds = _segment_bounds(lengths, t, "depthwise_conv1d")
    pad = (kk - 1) // 2
    # segment i sits at rows lo + (2i + 1) * pad .. of a zero array, with
    # `pad` zero rows on either side; `rows` are its output rows
    rows = np.concatenate([np.arange(lo, hi) + 2 * i * pad
                           for i, (lo, hi) in enumerate(bounds)])
    xp = np.zeros((t + 2 * pad * len(bounds), d), dtype=x.data.dtype)
    xp[rows + pad] = x.data
    n = xp.shape[0] - 2 * pad
    y = np.zeros((n, d), dtype=x.data.dtype)
    for j in range(kk):
        y += xp[j : j + n] * w.data[j]
    out = _node(y[rows], (x, w))

    def backward():
        g = np.zeros((n, d), dtype=out.grad.dtype)
        g[rows] = out.grad
        gxp = np.zeros_like(xp)
        for j in range(kk):
            gxp[j : j + n] += g * w.data[j]
        _accum(x, gxp[rows + pad], owned=True)

        def kernel_grad(out=None):  # one tap's row at a time
            out = np.empty_like(w.data) if out is None else out
            for j in range(kk):
                np.add.reduce(xp[j : j + n] * g, axis=0, out=out[j])
            return out

        _accum_into(w, kernel_grad)

    return _finish(out, backward, "depthwise_conv1d")


# ---------------------------------------------------------------------------
# transducer prediction and joint layers


def rnn_tanh(x: Tensor, w_rec: Tensor, lengths=None) -> Tensor:
    """Elman recurrence h_u = tanh(x_u + h_{u-1} @ w_rec), h_{-1} = 0, over
    the N >= 1 rows of x:(N,H) as one node. With `lengths` (as in
    `attention`), the state restarts at 0 at each segment's first row. The
    backward is its own backpropagation-through-time loop; the w_rec gradient
    is one matmul."""
    n, hdim = x.data.shape
    if w_rec.data.shape != (hdim, hdim):
        raise ValueError(f"rnn_tanh weight {w_rec.data.shape} does not match width {hdim}")
    bounds = _segment_bounds(lengths, n, "rnn_tanh")
    h = np.empty_like(x.data)
    for lo, hi in bounds:
        h[lo] = np.tanh(x.data[lo])
        for u in range(lo + 1, hi):
            h[u] = np.tanh(x.data[u] + h[u - 1] @ w_rec.data)
    out = _node(h, (x, w_rec))

    def backward():
        g = out.grad
        w_t = w_rec.data.T
        dz = np.empty_like(h)
        for lo, hi in bounds:
            carry = g[hi - 1]
            for u in range(hi - 1, lo - 1, -1):
                dz[u] = carry * (1.0 - h[u] * h[u])
                if u > lo:
                    carry = g[u - 1] + dz[u] @ w_t
        follow = np.ones(n, dtype=bool)  # rows with a predecessor in their segment
        follow[[lo for lo, _ in bounds]] = False
        _accum_into(w_rec, np.matmul, h[np.flatnonzero(follow) - 1].T, dz[follow])
        _accum(x, dz, owned=True)

    return _finish(out, backward, "rnn_tanh")


def joint_tanh(e: Tensor, g: Tensor, b: Tensor) -> Tensor:
    """tanh(e[:, None] + g[None] + b) flattened to (T*U, J) as one node, for
    e:(T,J), g:(U,J) and b:(J,)."""
    t, j = e.data.shape
    u = g.data.shape[0]
    if g.data.shape != (u, j) or b.data.shape != (j,):
        raise ValueError(f"joint_tanh shape mismatch: {e.data.shape}, {g.data.shape}, "
                         f"{b.data.shape}")
    z = e.data[:, None] + g.data[None]  # the one (T, U, J) buffer of the forward
    z += b.data
    h = np.tanh(z, out=z).reshape(t * u, j)
    out = _node(h, (e, g, b))

    def backward():
        dz = np.multiply(h, h)  # out.grad * (1 - h * h), in one buffer
        np.subtract(1.0, dz, out=dz)
        dz = np.multiply(out.grad, dz, out=dz).reshape(t, u, j)
        dg = dz.sum(axis=0)
        _accum(e, dz.sum(axis=1), owned=True)
        _accum_into(b, np.add.reduce, dg, axis=0)
        _accum(g, dg, owned=True)

    return _finish(out, backward, "joint_tanh")
