"""Independent reference implementations the tests check against.

These deliberately avoid the library's own code paths: naive loops,
exhaustive enumeration, and plain DP recurrences. The exceptions are
``make_lattice``, a test helper that bundles the library's transducer sums;
``sub``, ``tanh``, ``sigmoid``, ``sum_``, ``softmax`` and ``power``,
autodiff nodes that no model uses, which the chains below and the gradient
checks build on; ``gelu_composite``, GELU spelled out as a chain of the
engine's elementwise ops and those nodes; ``check_gradients``, which compares the engine's
reverse-mode gradients with central differences; and
``adam_step_per_tensor`` and ``toposort_dfs``, the engine's earlier Adam
update and tape sort, which the flat-buffer update and the loop-based sort
must reproduce exactly; and ``predict_states_loop`` and
``joint_log_probs_chain``, the transducer's prediction network as a
per-label loop of small nodes and its joint hidden layer as a
reshape/add/add/tanh/reshape chain, which the fused ``rnn_tanh`` and
``joint_tanh`` nodes must match; and ``attention_composite`` and
``pretrain_step_per_utterance``, attention as a reshape/transpose/matmul/
mul/softmax chain and a pretraining step as one graph per utterance, which
the fused attention node and the packed step must match; and ``transpose``,
``standardize``, ``layer_norm_chain`` and ``instance_norm_chain``, the
norms as chains of small nodes, which the one-node ``layer_norm`` and
``instance_norm`` must match; and ``embed_per_utterance`` and
``masked_predictions_per_utterance``, the pretraining front end and the
masked-accuracy pass one utterance at a time, which the packed ``embed`` and
``masked_accuracy`` must match; and ``asr_losses_per_utterance`` and
``asr_step_per_utterance``, ASR training's losses and step with one graph per
utterance (each a packed pass of one), which the packed step must match; and
``align_counts_loop``, the WER alignment's DP as a double loop, which the
row-at-a-time ``align_counts`` must match; and ``expected_coverage``, the
closed-form share of positions a span mask covers, which sampled masks must
match; and ``squared_distances_direct``, ``kmeans_pp_init_direct`` and
``lloyd_direct``, k-means recomputing every row's squared norm in each
distance pass, which `quantize.lloyd`, computing them once per fit, must
match byte for byte; and ``joint_tanh_direct``, the joint hidden layer node
building each of its values from fresh temporaries, which ``joint_tanh``,
computing in one buffer, must match byte for byte; and ``matmul_add``,
``swish_chain``, ``glu_chain``, ``scaled_add_chain`` and
``log_softmax_max``, the chains the one-node ``matmul`` with a bias,
``swish``, ``glu``, ``scaled_add`` and ``log_softmax`` replaced (the last
one the node that took its row max with ``ndarray.max``), which they must
match byte for byte, as ``layer_norm`` must match ``layer_norm_chain``, whose
statistics come from ``ndarray.mean``, and ``attention`` must match
``attention_composite``, whose softmax allocates each temporary; and
``pretrain_losses_all_rows``, the pretraining losses with every row through
the last block, the final norm and the head, which the packed step, computing
only the masked rows there, must match to rounding in f64.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from envasr import autodiff as ad
from envasr.asr.augment import specaugment
from envasr.asr.metrics import EditCounts
from envasr.asr.transducer import (_check_lattice_inputs, rnnt_alphas, rnnt_betas,
                                   rnnt_loss)
from envasr.env_encoder import AUDIO, VIDEO, draw_batch_mask
from envasr.masking import mask_params_at
from envasr.optim import minimize_mean
from envasr.rng import substream


def expected_coverage(prob: float, width: int) -> float:
    """Masking probability of an interior position: 1 - (1 - p)^w."""
    if not 0.0 <= prob <= 1.0:
        raise ValueError("prob must be a probability")
    if width < 1:
        raise ValueError("width must be positive")
    return 1.0 - (1.0 - prob) ** width


def matmul_triple_loop(a, b):
    a = np.asarray(a)
    b = np.asarray(b)
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            for t in range(k):
                out[i, j] += a[i, t] * b[t, j]
    return out


def softmax_direct(x):
    e = np.exp(np.asarray(x, dtype=np.float64))
    return e / e.sum()


def cross_entropy_logsumexp(logits, targets):
    logits = np.asarray(logits, dtype=np.float64)
    total = 0.0
    for row, t in zip(logits, targets):
        total += np.log(np.exp(row).sum()) - row[t]
    return total / len(targets)


def sub(a, b):
    """a - b with numpy broadcasting as one autodiff node."""
    b = ad._coerce(b, a)
    out = ad._node(a.data - b.data, (a, b))

    def backward():
        ad._accum(a, ad._unbroadcast(out.grad, a.data.shape))
        ad._accum(b, ad._unbroadcast(-out.grad, b.data.shape))

    return ad._finish(out, backward, "sub")


def tanh(a):
    out = ad._node(np.tanh(a.data), (a,))

    def backward():
        ad._accum(a, out.grad * (1.0 - out.data * out.data))

    return ad._finish(out, backward, "tanh")


def sigmoid(a):
    out = ad._node(1.0 / (1.0 + np.exp(-a.data)), (a,))

    def backward():
        ad._accum(a, out.grad * out.data * (1.0 - out.data))

    return ad._finish(out, backward, "sigmoid")


def matmul_add(a, w, b):
    """``ad.matmul(a, w, b)`` as a matmul node and an add node."""
    return ad.add(ad.matmul(a, w), b)


def swish_chain(a):
    return ad.mul(a, sigmoid(a))


def glu_chain(h):
    """``ad.glu`` of a (rows, 2d) tensor as narrow, sigmoid, narrow, mul."""
    d = h.data.shape[1] // 2
    gate = sigmoid(ad.narrow(h, 1, d, d))
    return ad.mul(ad.narrow(h, 1, 0, d), gate)


def scaled_add_chain(x, f, scale):
    return ad.add(x, ad.mul(f, scale))


def log_softmax_max(a):
    """Log-softmax over the last axis as one node, its row max from
    ``ndarray.max``."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    y = shifted - lse
    out = ad._node(y, (a,))

    def backward():
        g = out.grad
        ad._accum(a, g - np.exp(y) * g.sum(axis=-1, keepdims=True))

    return ad._finish(out, backward, "log_softmax")


def joint_tanh_direct(e, g, b):
    """tanh(e[:, None] + g[None] + b) flattened to (T*U, J) as one node, for
    e:(T,J), g:(U,J) and b:(J,)."""
    t, j = e.data.shape
    u = g.data.shape[0]
    if g.data.shape != (u, j) or b.data.shape != (j,):
        raise ValueError(f"joint_tanh shape mismatch: {e.data.shape}, {g.data.shape}, "
                         f"{b.data.shape}")
    h = np.tanh(e.data[:, None] + g.data[None] + b.data).reshape(t * u, j)
    out = ad._node(h, (e, g, b))

    def backward():
        dz = (out.grad * (1.0 - h * h)).reshape(t, u, j)
        dg = dz.sum(axis=0)
        ad._accum(e, dz.sum(axis=1))
        ad._accum(g, dg)
        ad._accum(b, dg.sum(axis=0))

    return ad._finish(out, backward, "joint_tanh")


def sum_(a, axis=None, keepdims=False):
    out = ad._node(a.data.sum(axis=axis, keepdims=keepdims), (a,))

    def backward():
        g = out.grad
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        ad._accum(a, np.broadcast_to(g, a.data.shape))

    return ad._finish(out, backward, "sum")


def softmax(a, axis=-1):
    """Max-shifted softmax as one autodiff node."""
    if a.data.shape[axis] == 0:
        raise ValueError("softmax over an empty axis")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)
    out = ad._node(y, (a,))

    def backward():
        g = out.grad
        dot = (g * y).sum(axis=axis, keepdims=True)
        ad._accum(a, (g - dot) * y)

    return ad._finish(out, backward, "softmax")


def power(a, exponent):
    """Elementwise a ** exponent as one autodiff node (numpy's float power)."""
    exponent = float(exponent)
    out = ad._node(a.data ** exponent, (a,))

    def backward():
        ad._accum(a, out.grad * exponent * a.data ** (exponent - 1.0))

    return ad._finish(out, backward, "power")


def transpose(a, axes=None):
    out = ad._node(np.transpose(a.data, axes), (a,))
    inverse = None if axes is None else np.argsort(axes)

    def backward():
        ad._accum(a, np.transpose(out.grad, inverse))

    return ad._finish(out, backward, "transpose")


def standardize(a, eps=1e-5):
    """Zero mean / unit variance over the last axis as one autodiff node."""
    mu = a.data.mean(axis=-1, keepdims=True)
    centered = a.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    y = centered * inv
    out = ad._node(y, (a,))

    def backward():
        g = out.grad
        gm = g.mean(axis=-1, keepdims=True)
        gy = (g * y).mean(axis=-1, keepdims=True)
        ad._accum(a, (g - gm - y * gy) * inv)

    return ad._finish(out, backward, "standardize")


def layer_norm_chain(x, gamma, beta, eps=1e-5):
    """``ad.layer_norm`` as standardize, mul, add."""
    return ad.add(ad.mul(standardize(x, eps), gamma), beta)


def instance_norm_chain(x, gamma, beta, eps=1e-5):
    """``ad.instance_norm`` of one (time, channels) segment as transpose,
    standardize over time, mul and add by the (channels, 1) reshaped affine
    parameters, and transpose back."""
    c = x.data.shape[1]
    h = standardize(transpose(x), eps)
    h = ad.add(ad.mul(h, ad.reshape(gamma, (c, 1))), ad.reshape(beta, (c, 1)))
    return transpose(h)


def gelu_composite(a):
    """tanh-form GELU as eight autodiff nodes (power, mul, add, mul, tanh,
    add, mul, mul), each with its own node's backward."""
    inner = ad.mul(ad.add(a, ad.mul(power(a, 3.0), 0.044715)), ad._GELU_C)
    return ad.mul(ad.mul(a, ad.add(tanh(inner), 1.0)), 0.5)


def numeric_gradient(f, t, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of the scalar f() w.r.t. t.data."""
    g = np.zeros_like(t.data)
    flat = t.data.reshape(-1)
    gf = g.reshape(-1)
    with ad.no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = float(f().data)
            flat[i] = orig - h
            fm = float(f().data)
            flat[i] = orig
            gf[i] = (fp - fm) / (2.0 * h)
    return g


def check_gradients(f, wrt, rtol: float = 1e-4, atol: float = 1e-7, h: float = 1e-5) -> float:
    """Compare reverse-mode gradients of scalar f() against central differences.

    Returns the worst relative error and raises AssertionError past tolerance.
    """
    wrt = list(wrt)
    for t in wrt:
        t.grad = None
    loss = f()
    loss.backward()
    worst = 0.0
    for t in wrt:
        analytic = np.zeros_like(t.data) if t.grad is None else t.grad
        numeric = numeric_gradient(f, t, h=h)
        denom = np.maximum(np.abs(analytic), np.abs(numeric))
        err = np.abs(analytic - numeric)
        rel = err / np.maximum(denom, atol / rtol)
        worst = max(worst, float(rel.max()) if rel.size else 0.0)
        if not np.all(err <= atol + rtol * denom):
            idx = np.unravel_index(np.argmax(err - rtol * denom), err.shape)
            raise AssertionError(
                f"gradient mismatch at {idx}: analytic {analytic[idx]:.8g} "
                f"vs numeric {numeric[idx]:.8g}"
            )
    return worst


def adam_scalar_trajectory(x0, grads, lr, beta1, beta2, eps):
    """Hand-rolled scalar Adam with bias correction."""
    x, m, v = float(x0), 0.0, 0.0
    history = []
    for t, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        x = x - lr * m_hat / (np.sqrt(v_hat) + eps)
        history.append(x)
    return history


def adam_step_per_tensor(params, moments, lr, beta1=0.9, beta2=0.99, eps=1e-8):
    """Adam one parameter array at a time, allocating fresh moments.

    `params` maps name -> Tensor. `moments` is this oracle's own state, name
    -> (m, v, t) per tensor; a name it lacks starts at zero moments, step 0.
    """
    live = [(name, params[name]) for name in sorted(params) if params[name].requires_grad]
    missing = [name for name, p in live if p.grad is None]
    if missing:
        raise ValueError(f"adam_step: missing gradient for {missing[0]}")
    for name, p in live:
        m, v, t = moments.get(name, (np.zeros_like(p.data), np.zeros_like(p.data), 0))
        g = p.grad
        t += 1
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * (g * g)
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + eps)
        p.grad = None
        moments[name] = (m, v, t)


def toposort_dfs(root):
    """Post-order DFS over the parent DAG, one ``next(genexpr)`` per visit."""
    topo = []
    visited = {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        nxt = next((p for p in parents if id(p) not in visited), None)
        if nxt is None:
            topo.append(node)
            stack.pop()
        else:
            visited.add(id(nxt))
            stack.append((nxt, iter(nxt._parents)))
    return topo


def predict_states_loop(model, labels):
    """(U+1, model_dim) prediction states, one label at a time: each step is
    narrow, matmul, add, (matmul, add,) tanh, and the rows are concatenated."""
    p = model.params
    tokens = np.concatenate([[model.blank_id], np.asarray(labels, dtype=np.int64)])
    emb = ad.embedding(p["pred.embed"], tokens)
    states = []
    h = None
    for u in range(tokens.size):
        z = ad.add(ad.matmul(ad.narrow(emb, 0, u, 1), p["pred.w_in"]), p["pred.b"])
        if h is not None:
            z = ad.add(z, ad.matmul(h, p["pred.w_rec"]))
        h = tanh(z)
        states.append(h)
    return states[0] if len(states) == 1 else ad.concat(states, axis=0)


def joint_log_probs_chain(model, enc, pred):
    """(T, U+1, V+1) joint log-probabilities with the hidden layer as a
    broadcasting reshape/add/add/tanh/reshape chain."""
    p = model.params
    t, u1, j = enc.data.shape[0], pred.data.shape[0], model.config.model_dim
    e = ad.reshape(ad.matmul(enc, p["joint.w_enc"]), (t, 1, j))
    g = ad.reshape(ad.matmul(pred, p["joint.w_pred"]), (1, u1, j))
    h = ad.reshape(tanh(ad.add(ad.add(e, g), p["joint.b"])), (t * u1, j))
    logits = ad.add(ad.matmul(h, p["joint.w_out"]), p["joint.b_out"])
    return ad.log_softmax(ad.reshape(logits, (t, u1, model.config.vocab_size + 1)))


def asr_loss_unfused(model, features, labels, env=None):
    """One utterance's `AsrModel.losses` through the two oracles above."""
    enc = model.encode([features], [env])
    pred = predict_states_loop(model, labels)
    return rnnt_loss(joint_log_probs_chain(model, enc, pred), labels)


def asr_losses_per_utterance(model, batch):
    """Each `Utterance`'s transducer loss from its own graph."""
    return [model.losses([u])[0] for u in batch]


def asr_step_per_utterance(model, examples, items, policy, hyper, step, seed=0):
    """`asr_step` with one graph per utterance: SpecAugment from the same
    substreams, per-utterance losses, then the mean's backward and Adam.
    Returns the mean loss."""
    batch = [replace(examples[i], features=specaugment(
        examples[i].features, policy, substream(seed, "specaug", step, i))) for i in items]
    return minimize_mean(model.params, asr_losses_per_utterance(model, batch), hyper)


def attention_composite(q, k, v, heads):
    """Multi-head attention on (time, dim) tensors as a chain of the engine's
    reshape, transpose, matmul and mul nodes and ``softmax``."""
    tq, d = q.data.shape
    tk = k.data.shape[0]
    dh = d // heads

    def split(t, n):
        return transpose(ad.reshape(t, (n, heads, dh)), (1, 0, 2))

    qh, kh, vh = split(q, tq), split(k, tk), split(v, tk)
    scores = ad.mul(ad.matmul(qh, transpose(kh, (0, 2, 1))), 1.0 / math.sqrt(dh))
    mixed = ad.matmul(softmax(scores, axis=-1), vh)
    return ad.reshape(transpose(mixed, (1, 0, 2)), (tq, d))


def embed_per_utterance(model, batch):
    """``EnvEncoder.embed`` of one utterance, one modality block at a time:
    each stem is a matmul and ``instance_norm_chain``, then mask swap,
    modality and position embeddings, and the video block (if any) and audio
    block are concatenated."""
    cfg = model.config
    p = model.params
    flags = None
    if batch.mask is not None:
        flags = np.asarray(batch.mask, dtype=bool)
    n_v = 0 if batch.video_patches is None else batch.video_patches.shape[0]

    def stem(patches, kind):
        h = ad.matmul(model._const(patches), p[f"stem.{kind}.w"])
        return instance_norm_chain(h, p[f"stem.{kind}.norm.g"], p[f"stem.{kind}.norm.b"])

    parts = []
    if batch.video_patches is not None:
        t, r, c = batch.video_grid
        h = stem(batch.video_patches, "video")
        if flags is not None:
            h = model._mask_content(h, flags[:n_v], VIDEO)
        h = ad.add(h, ad.narrow(p["embed.modality"], 0, VIDEO, 1))
        time_ids = np.repeat(np.arange(t), r * c)
        space_ids = np.tile(np.arange(r)[:, None] * cfg.max_grid_cols
                            + np.arange(c)[None, :], (t, 1, 1)).reshape(-1)
        h = ad.add(h, ad.embedding(p["embed.video_time"], time_ids))
        parts.append(ad.add(h, ad.embedding(p["embed.video_space"], space_ids)))
    n_a = batch.audio_patches.shape[0]
    h = stem(batch.audio_patches, "audio")
    if flags is not None:
        h = model._mask_content(h, flags[n_v:], AUDIO)
    h = ad.add(h, ad.narrow(p["embed.modality"], 0, AUDIO, 1))
    parts.append(ad.add(h, ad.embedding(p["embed.audio_pos"], np.arange(n_a))))
    return parts[0] if len(parts) == 1 else ad.concat(parts, axis=0)


def encoder_forward_composite(model, embedded, rows=None):
    """`EnvEncoder.encoder_forward` over one utterance, with its attention
    layers through ``attention_composite`` and its norms through
    ``layer_norm_chain``. With `rows`, the last block and the final norm
    compute only those rows, as in `EnvEncoder.forward_loss`."""
    p = model.params
    cfg = model.config

    def proj(t, pre, m):
        return ad.add(ad.matmul(t, p[f"{pre}.w{m}"]), p[f"{pre}.b{m}"])

    x = embedded
    for i in range(cfg.num_blocks):
        pre = f"block{i}"
        h = layer_norm_chain(x, p[f"{pre}.attn.norm.g"], p[f"{pre}.attn.norm.b"])
        queries = h
        if rows is not None and i == cfg.num_blocks - 1:
            x, queries = ad.embedding(x, rows), ad.embedding(h, rows)
        att = attention_composite(proj(queries, f"{pre}.attn", "q"),
                                  ad.matmul(h, p[f"{pre}.attn.wk"]),
                                  proj(h, f"{pre}.attn", "v"), cfg.heads)
        x = ad.add(x, proj(att, f"{pre}.attn", "o"))
        h = layer_norm_chain(x, p[f"{pre}.ff.norm.g"], p[f"{pre}.ff.norm.b"])
        h = ad.gelu(ad.add(ad.matmul(h, p[f"{pre}.ff.w1"]), p[f"{pre}.ff.b1"]))
        x = ad.add(x, ad.add(ad.matmul(h, p[f"{pre}.ff.w2"]), p[f"{pre}.ff.b2"]))
    return layer_norm_chain(x, p["final_norm.g"], p["final_norm.b"])


def pretrain_losses_all_rows(model, batches):
    """One masked cross-entropy per masked batch, each from its own graph
    over every row: the head runs on every row, and the loss gathers the
    masked rows' logits."""
    losses = []
    for b in batches:
        encoded = encoder_forward_composite(model, embed_per_utterance(model, b))
        rows = np.flatnonzero(b.mask)
        losses.append(ad.cross_entropy(ad.embedding(model.mlm_logits(encoded), rows),
                                       b.labels[rows]))
    return losses


def pretrain_losses_per_utterance(model, batches):
    """One masked cross-entropy per masked batch, each from its own graph
    whose last block computes only the masked rows, as the packed step's
    does."""
    losses = []
    for b in batches:
        rows = np.flatnonzero(b.mask)
        encoded = encoder_forward_composite(model, embed_per_utterance(model, b), rows)
        losses.append(ad.cross_entropy(model.mlm_logits(encoded), b.labels[rows]))
    return losses


def pretrain_step_per_utterance(model, batches, hyper, step, seed=0):
    """`pretrain_step` with one graph per utterance: masks drawn in batch
    order, per-utterance losses, then the mean's backward and Adam. Returns
    (loss, ppl)."""
    width, prob = mask_params_at(model.config.schedule, step)
    rng = substream(seed, "mask", step)
    masked = [replace(b, mask=draw_batch_mask(b, width, prob, rng)) for b in batches]
    loss = minimize_mean(model.params, pretrain_losses_per_utterance(model, masked), hyper)
    return loss, math.exp(loss)


def masked_predictions_per_utterance(model, batches, seed=0, width=1, prob=0.3):
    """``masked_accuracy``'s eval masks, with one no-grad graph per utterance.
    Returns the argmax prediction, label and mask flag of every position,
    concatenated in utterance order."""
    preds, labels, flags = [], [], []
    with ad.no_grad():
        for i, b in enumerate(batches):
            mask = draw_batch_mask(b, width, prob, substream(seed, "eval-mask", i))
            embedded = embed_per_utterance(model, replace(b, mask=mask))
            logits = model.mlm_logits(encoder_forward_composite(model, embedded))
            preds.append(logits.data.argmax(axis=1))
            labels.append(b.labels)
            flags.append(mask)
    return np.concatenate(preds), np.concatenate(labels), np.concatenate(flags)


def nearest_center_exhaustive(vectors, centers):
    """Per-vector argmin over centers with explicit loops (tie -> lowest id)."""
    ids = []
    for v in vectors:
        best, best_d = 0, None
        for j, c in enumerate(centers):
            d = float(((v - c) ** 2).sum())
            if best_d is None or d < best_d - 1e-15:
                best, best_d = j, d
        ids.append(best)
    return np.array(ids)


def squared_distances_direct(x: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(N, K) squared Euclidean distances, clamped at zero."""
    d2 = (
        (x * x).sum(axis=1)[:, None]
        - 2.0 * (x @ centers.T)
        + (centers * centers).sum(axis=1)[None, :]
    )
    return np.maximum(d2, 0.0)


def kmeans_pp_init_direct(x: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    best = squared_distances_direct(x, centers[:1]).ravel()
    for j in range(1, k):
        total = best.sum()
        if total <= 0.0:
            pick = rng.integers(n)
        else:
            pick = rng.choice(n, p=best / total)
        centers[j] = x[pick]
        best = np.minimum(best, squared_distances_direct(x, centers[j : j + 1]).ravel())
    return centers


def lloyd_direct(x: np.ndarray, k: int, max_iters: int, rng: np.random.Generator):
    """Lloyd iterations. Returns (centers, assignments, distortion trace).

    The trace starts at the distortion of the k-means++ initialization and
    appends one value per iteration; it is non-increasing.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    if n < k:
        raise ValueError(f"k-means needs at least k={k} vectors, got {n}")
    centers = kmeans_pp_init_direct(x, k, rng)
    d2 = squared_distances_direct(x, centers)
    assign = d2.argmin(axis=1)
    trace = [float(d2[np.arange(n), assign].mean())]
    for _ in range(max_iters):
        current = d2[np.arange(n), assign].copy()
        for j in range(k):
            members = assign == j
            if members.any():
                centers[j] = x[members].mean(axis=0)
            else:
                # re-seed the empty cluster to the farthest point
                far = int(current.argmax())
                centers[j] = x[far]
                current[far] = 0.0
        d2 = squared_distances_direct(x, centers)
        new_assign = d2.argmin(axis=1)
        trace.append(float(d2[np.arange(n), new_assign].mean()))
        if np.array_equal(new_assign, assign):
            assign = new_assign
            break
        assign = new_assign
    return centers, assign, trace


def transducer_loglik_enumerate(log_probs, labels):
    """Log-likelihood by explicit enumeration of every monotonic alignment."""
    log_probs = np.asarray(log_probs, dtype=np.float64)
    t_len, u1, v1 = log_probs.shape
    u_len = len(labels)
    blank = v1 - 1

    def complete(t, u):
        if t == t_len - 1 and u == u_len:
            return [log_probs[t, u, blank]]
        paths = []
        if t < t_len - 1:
            paths += [log_probs[t, u, blank] + p for p in complete(t + 1, u)]
        if u < u_len:
            paths += [log_probs[t, u, labels[u]] + p for p in complete(t, u + 1)]
        return paths

    all_paths = complete(0, 0)
    m = max(all_paths)
    return m + np.log(np.sum(np.exp(np.array(all_paths) - m))), len(all_paths)


def transducer_alphas_loop(log_probs, labels):
    """Forward DP. Returns (alpha (T, U+1), log-likelihood)."""
    t_len, u1, v1 = log_probs.shape
    blank = v1 - 1
    alpha = np.full((t_len, u1), -np.inf)
    alpha[0, 0] = 0.0
    for t in range(1, t_len):
        alpha[t, 0] = alpha[t - 1, 0] + log_probs[t - 1, 0, blank]
    for u in range(1, u1):
        alpha[0, u] = alpha[0, u - 1] + log_probs[0, u - 1, labels[u - 1]]
        for t in range(1, t_len):
            alpha[t, u] = np.logaddexp(
                alpha[t - 1, u] + log_probs[t - 1, u, blank],
                alpha[t, u - 1] + log_probs[t, u - 1, labels[u - 1]],
            )
    return alpha, alpha[-1, -1] + log_probs[-1, -1, blank]


def transducer_betas_loop(log_probs, labels):
    """Backward DP. beta[t, u] completes from (t, u); beta[0, 0] is the
    log-likelihood."""
    t_len, u1, v1 = log_probs.shape
    blank = v1 - 1
    beta = np.full((t_len, u1), -np.inf)
    beta[-1, -1] = log_probs[-1, -1, blank]
    for t in range(t_len - 2, -1, -1):
        beta[t, -1] = beta[t + 1, -1] + log_probs[t, -1, blank]
    for u in range(u1 - 2, -1, -1):
        beta[-1, u] = beta[-1, u + 1] + log_probs[-1, u, labels[u]]
        for t in range(t_len - 2, -1, -1):
            beta[t, u] = np.logaddexp(
                beta[t + 1, u] + log_probs[t, u, blank],
                beta[t, u + 1] + log_probs[t, u, labels[u]],
            )
    return beta, beta[0, 0]


def transducer_grad_loop(log_probs, labels, alpha, beta, loglik):
    """d(-loglik)/d(log_probs): negative alignment occupancies."""
    t_len, u1, v1 = log_probs.shape
    blank = v1 - 1
    grad = np.zeros_like(log_probs)
    # blank transitions (t, u) -> (t+1, u); the final blank exits the lattice
    occ = np.full((t_len, u1), -np.inf)
    occ[:-1, :] = alpha[:-1, :] + log_probs[:-1, :, blank] + beta[1:, :]
    occ[-1, -1] = alpha[-1, -1] + log_probs[-1, -1, blank]
    grad[:, :, blank] = -np.exp(occ - loglik)
    # label emissions (t, u) -> (t, u+1)
    for u in range(u1 - 1):
        occ_u = alpha[:, u] + log_probs[:, u, labels[u]] + beta[:, u + 1]
        grad[:, u, labels[u]] = -np.exp(occ_u - loglik)
    return grad


@dataclass
class TransducerLattice:
    """The T x (U+1) x (V+1) joint lattice with its forward/backward sums."""

    log_probs: np.ndarray
    labels: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    loglik: float


def make_lattice(log_probs, labels) -> TransducerLattice:
    labels = np.asarray(labels, dtype=np.int64)
    log_probs = np.asarray(log_probs, dtype=np.float64)
    _check_lattice_inputs(log_probs, labels)
    norm = np.log(np.exp(log_probs).sum(axis=-1))
    if np.abs(norm).max() > 1e-6:
        raise ValueError("each lattice vector must be a normalized log-distribution")
    alpha, ll_f = rnnt_alphas(log_probs, labels)
    beta, _ = rnnt_betas(log_probs, labels)
    return TransducerLattice(log_probs, labels, alpha, beta, float(ll_f))


def align_counts_loop(reference, hypothesis):
    """``align_counts`` with its DP table filled cell by cell (same ties:
    match/sub, then deletion, then insertion)."""
    ref, hyp = list(reference), list(hypothesis)
    n, m = len(ref), len(hyp)
    cost = np.zeros((n + 1, m + 1), dtype=np.int64)
    cost[:, 0] = np.arange(n + 1)
    cost[0, :] = np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            same = ref[i - 1] == hyp[j - 1]
            cost[i, j] = min(cost[i - 1, j - 1] + (0 if same else 1),
                             cost[i - 1, j] + 1,
                             cost[i, j - 1] + 1)
    counts = EditCounts()
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and cost[i, j] == cost[i - 1, j - 1] + (
                0 if ref[i - 1] == hyp[j - 1] else 1):
            if ref[i - 1] != hyp[j - 1]:
                counts.substitutions += 1
            i, j = i - 1, j - 1
        elif i > 0 and cost[i, j] == cost[i - 1, j] + 1:
            counts.deletions += 1
            i -= 1
        else:
            counts.insertions += 1
            j -= 1
    return counts


def edit_distance_dp(ref, hyp):
    """Plain iterative Levenshtein distance over token lists."""
    n, m = len(ref), len(hyp)
    prev = list(range(m + 1))
    for i in range(1, n + 1):
        cur = [i] + [0] * m
        for j in range(1, m + 1):
            cur[j] = min(prev[j - 1] + (ref[i - 1] != hyp[j - 1]),
                         prev[j] + 1,
                         cur[j - 1] + 1)
        prev = cur
    return prev[m]
