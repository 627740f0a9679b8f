"""Transducer (RNN-T) loss and greedy decoding.

The loss is the negative log of the total probability of every monotonic
alignment of U label emissions and T blank advances, summed in log space
over a T x (U+1) lattice (Graves 2012):

    alpha[t, u] = logadd(alpha[t-1, u] + blank(t-1, u),
                         alpha[t, u-1] + label(t, u-1))
    loss = -(alpha[T-1, U] + blank(T-1, U))

Along one label row u the recursion over t only adds blanks, so each row has
a closed form. With B[:, u] the exclusive cumsum over t of the row's blanks
and e = alpha[:, u-1] + label(:, u-1):

    alpha[:, u] = B[:, u] + logaddexp.accumulate(e - B[:, u]),
    alpha[:, 0] = B[:, 0].

The backward completions beta mirror it with C[:, u], the reverse inclusive
cumsum of the blanks, and f = beta[:, u+1] + label(:, u):

    beta[:, u] = C[:, u] + reversed(logaddexp.accumulate(reversed(f - C[:, u]))),
    beta[:, U] = C[:, U].

Each pass makes O(U) numpy calls rather than O(T*U) Python steps, in float64
whatever the input dtype. The gradient w.r.t. each lattice log-probability
is its alignment-occupancy weight exp(alpha + logp + beta' - loglik). The
blank symbol is the last vocabulary index. The plain (t, u) double loops
are kept as the test oracle in tests/oracles.py, next to brute-force
alignment enumeration.
"""

import numpy as np

from .. import autodiff as ad
from ..autodiff import Tensor

NEG_INF = -np.inf
MAX_SYMBOLS_PER_FRAME = 10   # greedy decoding's emission cap per encoder frame


def _check_lattice_inputs(log_probs: np.ndarray, labels: np.ndarray):
    if log_probs.ndim != 3:
        raise ValueError("log_probs must have shape (T, U+1, V+1)")
    t, u1, v1 = log_probs.shape
    if t < 1 or u1 != labels.size + 1:
        raise ValueError(f"lattice shape {log_probs.shape} does not match "
                         f"{labels.size} labels")
    if not np.all(np.isfinite(log_probs)):
        raise ValueError("non-finite joint log-probabilities")
    if labels.size and (labels.min() < 0 or labels.max() >= v1 - 1):
        raise ValueError("labels must lie in [0, V) with blank = V")


def _rows(log_probs: np.ndarray, labels: np.ndarray):
    """The lattice's blank (T, U+1) and label-emission (T, U) log-probs, in
    float64."""
    blanks = log_probs[:, :, -1].astype(np.float64)
    emits = log_probs[:, np.arange(labels.size), labels].astype(np.float64)
    return blanks, emits


def rnnt_alphas(log_probs: np.ndarray, labels: np.ndarray):
    """Forward DP. Returns (alpha (T, U+1), log-likelihood)."""
    blanks, emits = _rows(log_probs, labels)
    # exclusive cumsum over t of the blanks in each row
    b = np.zeros_like(blanks)
    np.cumsum(blanks[:-1], axis=0, out=b[1:])
    alpha = np.empty_like(blanks)
    alpha[:, 0] = b[:, 0]
    for u in range(1, alpha.shape[1]):
        e = alpha[:, u - 1] + emits[:, u - 1]
        alpha[:, u] = b[:, u] + np.logaddexp.accumulate(e - b[:, u])
    return alpha, alpha[-1, -1] + blanks[-1, -1]


def rnnt_betas(log_probs: np.ndarray, labels: np.ndarray):
    """Backward DP. beta[t, u] completes from (t, u); beta[0, 0] is the
    log-likelihood."""
    blanks, emits = _rows(log_probs, labels)
    # reverse inclusive cumsum over t of the blanks in each row
    c = np.cumsum(blanks[::-1], axis=0)[::-1]
    beta = np.empty_like(blanks)
    beta[:, -1] = c[:, -1]
    for u in range(beta.shape[1] - 2, -1, -1):
        f = (beta[:, u + 1] + emits[:, u] - c[:, u])[::-1]
        beta[:, u] = c[:, u] + np.logaddexp.accumulate(f)[::-1]
    return beta, beta[0, 0]


def rnnt_grad(log_probs: np.ndarray, labels: np.ndarray,
              alpha: np.ndarray, beta: np.ndarray, loglik: float) -> np.ndarray:
    """d(-loglik)/d(log_probs): negative alignment occupancies."""
    t_len, u1, v1 = log_probs.shape
    blank = v1 - 1
    grad = np.zeros_like(log_probs)
    # blank transitions (t, u) -> (t+1, u); the final blank exits the lattice
    occ = np.full((t_len, u1), NEG_INF)
    occ[:-1, :] = alpha[:-1, :] + log_probs[:-1, :, blank] + beta[1:, :]
    occ[-1, -1] = alpha[-1, -1] + log_probs[-1, -1, blank]
    grad[:, :, blank] = -np.exp(occ - loglik)
    # label emissions (t, u) -> (t, u+1)
    rows = np.arange(u1 - 1)
    occ = alpha[:, :-1] + log_probs[:, rows, labels] + beta[:, 1:]
    grad[:, rows, labels] = -np.exp(occ - loglik)
    return grad


def rnnt_loss(log_probs: Tensor, labels) -> Tensor:
    """Differentiable transducer loss on (T, U+1, V+1) log-probabilities."""
    labels = np.asarray(labels, dtype=np.int64)
    lp = log_probs.data
    _check_lattice_inputs(lp, labels)
    alpha, loglik = rnnt_alphas(lp, labels)
    out = ad._node(np.asarray(-loglik, dtype=lp.dtype), (log_probs,))

    def backward():
        beta, _ = rnnt_betas(lp, labels)
        g = rnnt_grad(lp, labels, alpha, beta, loglik)
        ad._accum(log_probs, out.grad * g, owned=True)

    return ad._finish(out, backward, "rnnt_loss")


def greedy_decode(model, enc: np.ndarray):
    """Standard RNN-T greedy loop over one utterance's (T, model_dim) encoder
    rows (from `model.encode`): emit argmax labels until blank, at most
    `MAX_SYMBOLS_PER_FRAME` per frame. Each frame's and each state's joint
    projection is computed once."""
    state = model.pred_start_np()
    pred_proj = model.joint_pred_np(state)
    blank = model.blank_id
    out = []
    for t in range(enc.shape[0]):
        enc_proj = model.joint_enc_np(enc[t])
        emitted = 0
        while emitted < MAX_SYMBOLS_PER_FRAME:
            k = int(model.joint_logits_np(enc_proj, pred_proj).argmax())
            if k == blank:
                break
            out.append(k)
            state = model.pred_step_np(state, k)
            pred_proj = model.joint_pred_np(state)
            emitted += 1
    return out
