"""Named parameter sets, their initialiser, and the Adam update (Kingma & Ba)
used by both training stages. Its betas and eps are the recipe's constants
`BETA1`, `BETA2` and `EPS`; only the learning rate is a config key."""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .autodiff import Tensor, mul

# Elements per in-place Adam chunk: small enough for the cache, large enough
# to amortise the Python loop (fastest in a sweep on both benchmark shapes).
ADAM_CHUNK = 65536
# Adam's first- and second-moment decay rates and denominator floor, fixed
# by the training recipe.
BETA1 = 0.9
BETA2 = 0.99
EPS = 1e-8


@dataclass
class AdamHyper:
    """The ``optimizer.*`` config section: Adam's learning rate."""

    lr: float = 3e-4

    def __post_init__(self):
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"optimizer.lr must be positive and finite, got {self.lr}")


class FlatBuffers(NamedTuple):
    """Parameters, gradients and Adam moments, in name order; also one
    parameter's views of them (`ParameterSet.views`)."""

    data: np.ndarray
    grad: np.ndarray
    m: np.ndarray
    v: np.ndarray


class ParameterSet:
    """Ordered map name -> parameter tensor, stored in four flat buffers
    (`flat`), plus one Adam step count `t` for every trained parameter.

    Built from all of a model's `{name: array}` at once, laid out in name
    order: `layout[name]` is `(lo, hi, shape)`, its slice of every buffer.
    Each `Tensor.data` and gradient slot (`_grad_buf`) is a view of the set's
    buffers, and `views` gives a parameter's slices of all four. Backward
    writes each parameter's first gradient in place, into its slot, and adds
    any later one there, so `adam_step` reads the gradients where they were
    computed.
    Iteration is in name order, so updates, checkpoints, and hashes are
    deterministic.
    """

    def __init__(self, arrays: dict):
        dtypes = sorted({str(a.dtype) for a in arrays.values()})
        if len(dtypes) > 1:
            raise ValueError(f"a parameter set cannot mix dtypes: {', '.join(dtypes)}")
        dtype = dtypes[0] if dtypes else np.float64
        total = sum(a.size for a in arrays.values())
        self.flat = FlatBuffers(*(np.zeros(total, dtype=dtype) for _ in range(4)))
        self.t = 0
        self._params = {}
        self.layout = {}
        lo = 0
        for name in sorted(arrays):
            hi = lo + arrays[name].size
            self.layout[name] = (lo, hi, arrays[name].shape)
            views = self.views(name)
            views.data[...] = arrays[name]
            p = self._params[name] = Tensor(views.data, requires_grad=True)
            p._grad_buf = views.grad
            lo = hi
        self._scratch = tuple(np.empty(min(ADAM_CHUNK, total), dtype=dtype)
                              for _ in range(2))

    def views(self, name: str) -> FlatBuffers:
        """One parameter's slices of the four flat buffers."""
        lo, hi, shape = self.layout[name]
        return FlatBuffers(*(buf[lo:hi].reshape(shape) for buf in self.flat))

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]


def init_param(arrays: dict, rng, name: str, shape, dtype, zero=False,
               one=False, table=False) -> np.ndarray:
    """Add to `arrays` a parameter of zeros, ones, a 0.02-scaled normal table,
    or a weight drawn N(0, 1) / sqrt(prod(shape[:-1])). Only tables and
    weights draw from `rng`, so the order of those names fixes every
    parameter's values. With `rng` None every parameter is zeros: the layout
    of a model whose values come from a checkpoint."""
    if name in arrays:
        raise ValueError(f"duplicate parameter name: {name}")
    if zero or rng is None:
        data = np.zeros(shape)
    elif one:
        data = np.ones(shape)
    elif table:
        data = 0.02 * rng.standard_normal(shape)
    else:
        data = rng.standard_normal(shape) / math.sqrt(int(np.prod(shape[:-1])))
    arrays[name] = data.astype(dtype)
    return arrays[name]


def adam_step(params: ParameterSet, lr: float) -> None:
    """Bias-corrected Adam update, at `BETA1`, `BETA2` and `EPS`, of every
    parameter that requires gradients; gradients are consumed (cleared) and
    the set's step count `t` rises by one.

    Live parameters that are neighbours in name order form one run of the
    flat buffers, updated in place `ADAM_CHUNK` elements at a time. Each
    element sees the per-tensor update's ops in the same order, so the
    results are bit-identical to it.
    """
    live = [(name, p) for name, p in params.items() if p.requires_grad]
    missing = [name for name, p in live if p.grad is None]
    if missing:
        raise ValueError(f"adam_step: missing gradient for {missing[0]}")
    runs = []
    for name, p in live:
        if p.grad is not p._grad_buf:  # set by the caller or by a generic op
            np.copyto(p._grad_buf, p.grad)
        p.grad = None
        lo, hi, _ = params.layout[name]
        if runs and runs[-1][1] == lo:
            runs[-1][1] = hi
        else:
            runs.append([lo, hi])
    params.t += 1
    c1 = 1.0 - BETA1 ** params.t
    c2 = 1.0 - BETA2 ** params.t
    data, grad, m, v = params.flat
    for lo, hi in runs:
        for start in range(lo, hi, ADAM_CHUNK):
            end = min(start + ADAM_CHUNK, hi)
            g, mc, vc, pc = grad[start:end], m[start:end], v[start:end], data[start:end]
            a, b = (s[: end - start] for s in params._scratch)
            np.multiply(mc, BETA1, out=mc)
            np.multiply(g, 1.0 - BETA1, out=a)
            np.add(mc, a, out=mc)          # m = b1*m + (1-b1)*g
            np.multiply(g, g, out=a)
            np.multiply(a, 1.0 - BETA2, out=a)
            np.multiply(vc, BETA2, out=vc)
            np.add(vc, a, out=vc)          # v = b2*v + (1-b2)*(g*g)
            np.divide(mc, c1, out=a)
            np.multiply(a, lr, out=a)      # lr * m_hat
            np.divide(vc, c2, out=b)
            np.sqrt(b, out=b)
            np.add(b, EPS, out=b)          # sqrt(v_hat) + eps
            np.divide(a, b, out=a)
            np.subtract(pc, a, out=pc)


def minimize_mean(params: ParameterSet, losses, hyper: AdamHyper) -> float:
    """Backpropagate the mean of `losses` and make one Adam step on `params`;
    returns the mean loss."""
    total = mul(sum(losses[1:], losses[0]), 1.0 / len(losses))
    total.backward()
    adam_step(params, hyper.lr)
    return float(total.data)


def count_parameters(params: ParameterSet) -> int:
    return sum(p.data.size for _, p in params.items())
