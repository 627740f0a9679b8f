"""Named parameter sets, their initialiser, and the Adam update used by both
training stages."""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .autodiff import Tensor, mul

# Elements per in-place Adam chunk: small enough for the cache, large enough
# to amortise the Python loop (fastest in a sweep on both benchmark shapes).
ADAM_CHUNK = 65536


@dataclass
class AdamHyper:
    """Optimizer hyper-parameters, the ``optimizer.*`` config section
    (defaults follow the training recipe)."""

    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.99
    eps: float = 1e-8

    def __post_init__(self):
        for name in ("lr", "eps"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"optimizer.{name} must be positive and finite, "
                                 f"got {value}")
        for name in ("beta1", "beta2"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"optimizer.{name} must lie in [0, 1), got {value}")


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0


class FlatBuffers(NamedTuple):
    """A packed set's parameters, gradients and Adam moments, in name order."""

    data: np.ndarray
    grad: np.ndarray
    m: np.ndarray
    v: np.ndarray


class ParameterSet:
    """Ordered map name -> parameter tensor plus per-parameter Adam state.

    Iteration is always sorted by name so that updates, checkpoints, and
    hashes are deterministic. `pack` moves every parameter, gradient and
    moment into one flat buffer each (`FlatBuffers`), laid out in name order;
    `Tensor.data`, the gradient slot and `AdamState.m`/`.v` become views.
    """

    def __init__(self):
        self._params = {}
        self._state = {}
        self._flat = None
        self._offsets = {}
        self._scratch = ()

    def add(self, name: str, data, dtype=None) -> Tensor:
        if self._flat is not None:
            raise ValueError(f"cannot add {name}: the parameter set is packed")
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        t = data if isinstance(data, Tensor) else Tensor(data, dtype=dtype)
        t.requires_grad = True
        self._params[name] = t
        self._state[name] = AdamState(np.zeros_like(t.data), np.zeros_like(t.data))
        return t

    def pack(self) -> None:
        """Copy parameters and moments into flat buffers; a second call, or a
        call on an empty set, does nothing."""
        if self._flat is not None or not self._params:
            return
        dtypes = sorted({str(p.data.dtype) for p in self._params.values()})
        if len(dtypes) > 1:
            raise ValueError(f"cannot pack parameters of mixed dtypes: {', '.join(dtypes)}")
        total = sum(p.data.size for p in self._params.values())
        flat = FlatBuffers(*(np.zeros(total, dtype=dtypes[0]) for _ in range(4)))
        lo = 0
        for name, p in self.items():
            st = self._state[name]
            hi = lo + p.data.size
            data, grad, m, v = (buf[lo:hi].reshape(p.data.shape) for buf in flat)
            data[...], m[...], v[...] = p.data, st.m, st.v
            p.data, p._grad_buf, st.m, st.v = data, grad, m, v
            self._offsets[name] = (lo, hi)
            lo = hi
        self._flat = flat
        self._scratch = tuple(np.empty(min(ADAM_CHUNK, total), dtype=dtypes[0])
                              for _ in range(2))

    def names(self):
        return sorted(self._params)

    def items(self):
        for name in self.names():
            yield name, self._params[name]

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def state(self, name: str) -> AdamState:
        return self._state[name]


def init_param(params: ParameterSet, rng, name: str, shape, dtype, zero=False,
               one=False, table=False) -> Tensor:
    """Add a parameter of zeros, ones, a 0.02-scaled normal table, or a weight
    drawn N(0, 1) / sqrt(prod(shape[:-1])). Only tables and weights draw from
    `rng`, so the order of those names fixes every parameter's values."""
    if zero:
        data = np.zeros(shape)
    elif one:
        data = np.ones(shape)
    elif table:
        data = 0.02 * rng.standard_normal(shape)
    else:
        data = rng.standard_normal(shape) / math.sqrt(int(np.prod(shape[:-1])))
    return params.add(name, data.astype(dtype))


def adam_step(params: ParameterSet, lr: float, beta1: float = 0.9,
              beta2: float = 0.99, eps: float = 1e-8) -> None:
    """Bias-corrected Adam update of every parameter that requires gradients;
    gradients are consumed (cleared).

    Packs `params` first. Live parameters that are neighbours in name order
    and share a step count form one run of the flat buffers, updated in place
    `ADAM_CHUNK` elements at a time. Each element sees the per-tensor
    update's ops in the same order, so the results are bit-identical to it.
    """
    params.pack()
    live = [(name, p) for name, p in params.items() if p.requires_grad]
    missing = [name for name, p in live if p.grad is None]
    if missing:
        raise ValueError(f"adam_step: missing gradient for {missing[0]}")
    runs = []
    for name, p in live:
        if p.grad is not p._grad_buf:  # assigned by the caller, not by backward
            np.copyto(p._grad_buf, p.grad)
        p.grad = None
        st = params.state(name)
        st.t += 1
        lo, hi = params._offsets[name]
        if runs and runs[-1][1] == lo and runs[-1][2] == st.t:
            runs[-1][1] = hi
        else:
            runs.append([lo, hi, st.t])
    if not runs:
        return
    data, grad, m, v = params._flat
    for lo, hi, t in runs:
        c1 = 1.0 - beta1 ** t
        c2 = 1.0 - beta2 ** t
        for start in range(lo, hi, ADAM_CHUNK):
            end = min(start + ADAM_CHUNK, hi)
            g, mc, vc, pc = grad[start:end], m[start:end], v[start:end], data[start:end]
            a, b = (s[: end - start] for s in params._scratch)
            np.multiply(mc, beta1, out=mc)
            np.multiply(g, 1.0 - beta1, out=a)
            np.add(mc, a, out=mc)          # m = b1*m + (1-b1)*g
            np.multiply(g, g, out=a)
            np.multiply(a, 1.0 - beta2, out=a)
            np.multiply(vc, beta2, out=vc)
            np.add(vc, a, out=vc)          # v = b2*v + (1-b2)*(g*g)
            np.divide(mc, c1, out=a)
            np.multiply(a, lr, out=a)      # lr * m_hat
            np.divide(vc, c2, out=b)
            np.sqrt(b, out=b)
            np.add(b, eps, out=b)          # sqrt(v_hat) + eps
            np.divide(a, b, out=a)
            np.subtract(pc, a, out=pc)


def minimize_mean(params: ParameterSet, losses, hyper: AdamHyper) -> float:
    """Backpropagate the mean of `losses` and make one Adam step on `params`;
    returns the mean loss."""
    total = mul(sum(losses[1:], losses[0]), 1.0 / len(losses))
    total.backward()
    adam_step(params, hyper.lr, hyper.beta1, hyper.beta2, hyper.eps)
    return float(total.data)


def count_parameters(params: ParameterSet) -> int:
    return sum(p.data.size for _, p in params.items())
