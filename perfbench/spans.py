"""Spans and counts recorded from outside the program.

``Tracer.install()`` replaces layer functions of the already imported
``envasr`` modules with timing wrappers: each module-level function is
replaced under every name that refers to it in any ``envasr`` module (so
``from ..optim import adam_step`` copies are caught too), methods are
replaced on their class. ``uninstall()`` puts every original back. No
program source is edited.

A span is ``[name, start, end, parent, ctx]`` with ``time.perf_counter``
times and ``parent`` the index of the enclosing span (-1 at top level).
Backward closures of autodiff ops are timed too: the tracer wraps the
closure that ``autodiff._finish`` stores on each new node. Such a span is
named ``autodiff.<op>.bwd`` and its ``ctx`` is the autodiff composite
(``gelu``, ``attention``, ``norm``) that created the node, if any. Counts are
``(name, time, value)`` events. Everything stays in memory until the
benchmark writes it out at the end.
"""

import os
import sys
import time

# ops whose backward closures are timed even outside a composite
_TIMED_BWD_OPS = {"matmul": "matmul", "conv1d": "conv", "depthwise_conv1d": "conv"}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = []
        self._stack = []
        self._ctx = None
        self._undo = []

    # recording ---------------------------------------------------------------

    def _timed(self, name, fn, ctx=None, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, ctx]
            stack.append(len(spans))
            spans.append(rec)
            prev_ctx = self._ctx
            if ctx is not None:
                self._ctx = ctx
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                self._ctx = prev_ctx
            if count is not None:
                for cname, value in count(args, out):
                    self.counts.append((cname, rec[1], value))
            return out

        return wrapper

    def _counter(self, name, fn):
        counts, clock = self.counts, time.perf_counter

        def wrapper(*args, **kwargs):
            counts.append((name, clock(), 1))
            return fn(*args, **kwargs)

        return wrapper

    # patching ----------------------------------------------------------------

    def _replace_everywhere(self, orig, new):
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("envasr") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._undo.append((mod, attr, orig))
                    setattr(mod, attr, new)

    def _replace_method(self, cls, attr, new):
        self._undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, new)

    def install(self):
        from envasr import autodiff as ad
        from envasr import optim
        from envasr.asr import augment, transducer
        from envasr.asr.conformer import AsrModel
        from envasr.env_encoder import EnvEncoder, extract_env_embeddings
        from envasr.masking import sample_segmented_mask
        from envasr.pipeline import checkpoint, data
        from envasr.quantize import assign_tokens, train_kmeans

        func = self._replace_everywhere
        t = self._timed

        def adam_count(args, _):
            return [("optim.params", sum(p.data.size for _, p in args[0].items()))]

        def lattice_count(args, _):
            t_len, u1 = args[0].shape[:2]
            return [("transducer.lattice_cells", t_len * u1)]

        def positions_count(args, _):
            return [("env_encoder.positions", args[1].seq_len)]

        def patches_count(_, utts):
            return [("features.patches", sum(u.raw_patches.shape[0] for u in utts))]

        def bytes_count(args, _):
            return [("checkpoint.bytes", os.path.getsize(args[0]))]

        func(optim.adam_step, t("optim.adam", optim.adam_step, count=adam_count))
        func(transducer.rnnt_alphas,
             t("transducer.alphas", transducer.rnnt_alphas, count=lattice_count))
        func(transducer.rnnt_betas, t("transducer.betas", transducer.rnnt_betas))
        func(transducer.rnnt_grad, t("transducer.grad", transducer.rnnt_grad))
        func(transducer.greedy_decode, t("transducer.greedy", transducer.greedy_decode))
        func(augment.specaugment, t("augment.specaug", augment.specaugment))
        func(sample_segmented_mask, t("masking.sample", sample_segmented_mask))
        func(extract_env_embeddings, t("env_encoder.extract", extract_env_embeddings))
        func(data.load_corpus, t("features.load", data.load_corpus, count=patches_count))
        func(train_kmeans, t("quantize.kmeans", train_kmeans))
        func(assign_tokens, t("quantize.assign", assign_tokens))
        func(checkpoint.save_checkpoint,
             t("checkpoint.save", checkpoint.save_checkpoint, count=bytes_count))
        func(data.cached_env_embeddings, self._cache_wrapper(data.cached_env_embeddings))

        for fn_name, ctx in (("matmul", None), ("conv1d", None),
                             ("depthwise_conv1d", None), ("gelu", "gelu"),
                             ("attention", "attention"), ("layer_norm", "norm"),
                             ("instance_norm", "norm")):
            fn = getattr(ad, fn_name)
            label = ctx or _TIMED_BWD_OPS[fn_name]
            func(fn, t(f"autodiff.{label}", fn, ctx=ctx))
        func(ad._finish, self._finish_wrapper(ad._finish))

        meth = self._replace_method
        meth(ad.Tensor, "backward", t("autodiff.backward", ad.Tensor.backward))
        meth(AsrModel, "encode", t("conformer.encode", AsrModel.encode))
        meth(AsrModel, "predict_states", t("conformer.predict", AsrModel.predict_states))
        meth(AsrModel, "joint_log_probs", t("conformer.joint", AsrModel.joint_log_probs))
        meth(AsrModel, "joint_logits_np",
             self._counter("transducer.joint_calls", AsrModel.joint_logits_np))
        meth(EnvEncoder, "forward_loss",
             t("env_encoder.forward", EnvEncoder.forward_loss, count=positions_count))

    def _cache_wrapper(self, fn):
        timed = self._timed("data.env_cache", fn)

        def wrapper(cache_dir, utt_name, *args, **kwargs):
            hit = os.path.isfile(os.path.join(cache_dir, f"{utt_name}.env"))
            self.counts.append(("data.env_cache_lookups", time.perf_counter(), 1))
            self.counts.append(("data.env_cache_hits", time.perf_counter(), int(hit)))
            return timed(cache_dir, utt_name, *args, **kwargs)

        return wrapper

    def _finish_wrapper(self, finish):
        timed = self._timed

        def wrapper(out, backward, op):
            if out._parents:
                ctx = self._ctx
                if ctx is not None or op in _TIMED_BWD_OPS:
                    # runs later, inside Tensor.backward; the span keeps the
                    # composite that built the node
                    backward = timed(f"autodiff.{op}.bwd", backward, ctx=ctx)
            return finish(out, backward, op)

        return wrapper

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

