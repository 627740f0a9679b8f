"""Named parameter sets, their initialiser, and the Adam update used by both
training stages."""

import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, mul


@dataclass
class AdamHyper:
    """Optimizer hyper-parameters (defaults follow the training recipe)."""

    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.99
    eps: float = 1e-8


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0


@dataclass
class ParameterSet:
    """Ordered map name -> parameter tensor plus per-parameter Adam state.

    Iteration is always sorted by name so that updates, checkpoints, and
    hashes are deterministic.
    """

    _params: dict = field(default_factory=dict)
    _state: dict = field(default_factory=dict)

    def add(self, name: str, data, dtype=None) -> Tensor:
        if name in self._params:
            raise ValueError(f"duplicate parameter name: {name}")
        t = data if isinstance(data, Tensor) else Tensor(data, dtype=dtype)
        t.requires_grad = True
        self._params[name] = t
        self._state[name] = AdamState(np.zeros_like(t.data), np.zeros_like(t.data))
        return t

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
    gradients are consumed (cleared)."""
    live = [(name, p) for name, p in params.items() if p.requires_grad]
    missing = [name for name, p in live if p.grad is None]
    if missing:
        raise ValueError(f"adam_step: missing gradient for {missing[0]}")
    for name, p in live:
        st = params.state(name)
        g = p.grad
        st.t += 1
        st.m = beta1 * st.m + (1.0 - beta1) * g
        st.v = beta2 * st.v + (1.0 - beta2) * (g * g)
        m_hat = st.m / (1.0 - beta1 ** st.t)
        v_hat = st.v / (1.0 - beta2 ** st.t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)
        p.grad = None


def minimize_mean(params: ParameterSet, losses, hyper: AdamHyper) -> float:
    """Backpropagate the mean of `losses` and make one Adam step on `params`;
    returns the mean loss."""
    total = mul(sum(losses[1:], losses[0]), 1.0 / len(losses))
    total.backward()
    adam_step(params, hyper.lr, hyper.beta1, hyper.beta2, hyper.eps)
    return float(total.data)


def count_parameters(params: ParameterSet) -> int:
    return sum(p.data.size for _, p in params.items())
