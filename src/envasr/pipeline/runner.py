"""Stage drivers: tokenize, pretrain, ASR training, evaluation.

Every run is a deterministic function of (config, seed, input files): model
init, masking, SpecAugment, and codebook training all draw from named
substreams of the run seed, and logs are written line by line as
``step=<n> loss=<f> [ppl=<f>] [mask_w=<n> mask_p=<f>]``.

Both training stages run `_train_loop`. Step ``n`` trains on items
``(n * batch_size + j) % len(items)``; a checkpoint follows every
``checkpoint_every`` steps, the last step and an early stop; an eval follows
every ``eval_every`` steps and the last step. Pretraining stops after
``patience`` evals (0: never) without a training-loss gain of 1e-6, ASR once
its WER is at most ``asr.early_stop_wer``. A resumed run restores its patience
count and keeps its log's lines from before its first step, then appends.

A checkpoint records the keys of the whitener and (pretraining) each codebook
it was trained with; a resume, ASR training on a pretraining checkpoint and
eval fail with one line when they differ from the files in use.

Each model's inputs are built in one place: `_pretrain_inputs` for
pretraining and tokenize, `_asr_examples` then `_attach_env` for ASR
training and eval.

codebook_dir is `data`'s keyed store, and only `data` names its files
(`data.store_path`). Every stage loads its corpus through the corpus's
features file there; only `tokenize` and pretraining read clips. After a
miss, a stage writes the training corpus's file right after
`ensure_whitener`, which pretraining reaches only past its position checks,
and the eval corpus's after `_attach_env`'s checks, so a corpus those checks
reject leaves no file. Cross-attention stages take each utterance's env
embeddings from the store too, so runs that share a corpus, whitener and
pretraining checkpoint extract it once, whatever their out_dir; each also
writes them to `out_dir/env_cache/`, a record nothing reads back.

An ASR step is one packed graph over its batch (`asr_step`). Eval, inside
training and in `run_eval`, encodes consecutive utterances in packed no-grad
passes of at most `ENCODE_ROWS` encoder rows, then greedy-decodes each
utterance's rows. Models loaded from a checkpoint are built without drawing
an init.
"""

import math
from pathlib import Path

import numpy as np

from .. import autodiff as ad
from ..asr.conformer import CROSS, SUBSAMPLE_KERNEL, AsrModel, Utterance, asr_step
from ..asr.metrics import corpus_wer, format_wer_report
from ..asr.transducer import greedy_decode
from ..env_encoder import (EnvEncoder, masked_accuracy, parameter_hash,
                           pretrain_step)
from ..features import whiten_clip
from ..masking import mask_params_at
from ..serialize import DTYPE_TOKENS, atomic_write, write_array
from .checkpoint import load_checkpoint, restore_params, save_checkpoint
from .config import (RunConfig, config_lines, conformer_config,
                     env_encoder_config, parse_config_lines)
from .corpus import SYMBOLS
from .data import (cached_env_embeddings, ensure_codebooks, ensure_whitener, load_corpus,
                   load_whitener, make_pretrain_batch, store_path)

# Encoder rows per packed no-grad pass in eval: bounds the activations held at
# once on a big eval set, while a pass still spans many utterances.
ENCODE_ROWS = 4096


def _write_lines(path, lines) -> None:
    """Replace `path` atomically with `lines`, one per line, in UTF-8."""
    with atomic_write(path) as fh:
        fh.write(("\n".join(lines) + "\n").encode("utf-8"))


def _pretrain_inputs(cfg: RunConfig, utts):
    """(one `MultimodalBatch` per utterance of `utts`, keys of the whitener
    and codebooks they were built with), whitening each utterance once."""
    whitener = ensure_whitener(cfg.codebook_path(), utts)
    utts.store_features()
    audio = [whiten_clip(u.raw_patches, whitener) for u in utts]
    cb_audio, cb_video = ensure_codebooks(cfg, utts, audio, whitener.key)
    batches = [make_pretrain_batch(u, rows, cb_audio, cb_video)
               for u, rows in zip(utts, audio)]
    keys = {"whitener": whitener.key, "audio_codebook": cb_audio.key}
    if cb_video is not None:
        keys["video_codebook"] = cb_video.key
    return batches, keys


def run_tokenize(cfg: RunConfig) -> dict:
    """Fit the codebooks offline (video only for a corpus with clips) and
    write per-utterance token manifests: each batch's labels, split at its
    video row count (video ids come first)."""
    utts = load_corpus(cfg.train_manifest_path(), cfg.codebook_path())
    batches, _ = _pretrain_inputs(cfg, utts)
    audio_lines = []
    video_lines = []
    for utt, batch in zip(utts, batches):
        n_video = 0 if batch.video_patches is None else batch.video_patches.shape[0]
        if batch.video_patches is not None:
            video_lines.append(utt.name + "\t" + " ".join(map(str, batch.labels[:n_video])))
        audio_lines.append(utt.name + "\t" + " ".join(map(str, batch.labels[n_video:])))
    cb_dir = cfg.codebook_path()
    for modality, lines in (("audio", audio_lines), ("video", video_lines)):
        if lines:
            _write_lines(store_path(cb_dir, f"{modality}_tokens"), lines)
        else:  # an earlier corpus's video tokens must not outlive it
            store_path(cb_dir, f"{modality}_tokens").unlink(missing_ok=True)
    return {"vocab_size": cfg.tokenize.k_audio + cfg.tokenize.k_video,
            "codebook_dir": str(cb_dir),
            "audio_codebook": str(store_path(cb_dir, "audio_codebook")),
            "video_codebook": str(store_path(cb_dir, "video_codebook")) if video_lines else None,
            "utterances": len(utts)}


def _asr_examples(utts, whitener, dtype: str):
    """(names, reference words, env-less examples) of `utts`, whose audio
    patches are whitened into the ASR model's `dtype`. A stage keeps these and
    drops `utts`: whitening is the last reader of the unwhitened rows."""
    for u in utts:
        if u.raw_patches.shape[0] < SUBSAMPLE_KERNEL:
            raise ValueError(f"utterance {u.name} has {u.raw_patches.shape[0]} audio patches, "
                             f"fewer than the {SUBSAMPLE_KERNEL} the subsampling conv needs")
    return ([u.name for u in utts], [u.label_names for u in utts],
            [Utterance(whiten_clip(u.raw_patches, whitener)
                       .astype(DTYPE_TOKENS[dtype], copy=False), u.label_ids)
             for u in utts])


def _check_positions(env_cfg, name: str, audio_patches: int, video_grid) -> None:
    """Fail before step 0, naming utterance `name`, if its audio patch count
    or video grid (None: not checked) outgrows the env encoder's position
    tables; `EnvEncoder.embed` would fail only at its step."""
    sizes = [("audio patches", "max_audio_positions", audio_patches)]
    if video_grid:
        sizes += zip(("video steps", "grid rows", "grid cols"),
                     ("max_video_steps", "max_grid_rows", "max_grid_cols"), video_grid)
    for what, key, size in sizes:
        if size > getattr(env_cfg, key):
            raise ValueError(f"utterance {name} has {size} {what}, more than "
                             f"{key} = {getattr(env_cfg, key)}")


def _train_loop(cfg: RunConfig, log_name: str, n_items: int, step_fn, eval_fn,
                params, ckpt_path, start: int = 0, loop_state=lambda: "",
                keys=None) -> dict:
    """Steps `start` .. max_steps - 1 at the cadence above, each log line also
    printed. `step_fn(step, items)` makes one optimizer step on those item
    indices and returns (loss, step line); `eval_fn(step, loss)` returns
    (``#`` lines, early-stop reason or None); checkpoints store `loop_state()`
    and the `keys` of the derived files the run trains on."""
    log_path = cfg.out_path() / log_name
    kept = []
    if start and log_path.is_file():
        for text in log_path.read_text(encoding="utf-8").splitlines(keepends=True):
            if text.startswith("step=") and int(text.split()[0][5:]) >= start:
                break
            kept.append(text)
    log_path.parent.mkdir(parents=True, exist_ok=True)
    done, loss = start, None
    with open(log_path, "w", encoding="utf-8") as log:
        log.write("".join(kept))

        def line(text):
            print(text)
            print(text, file=log, flush=True)

        for step in range(start, cfg.max_steps):
            items = [(step * cfg.batch_size + j) % n_items for j in range(cfg.batch_size)]
            loss, text = step_fn(step, items)
            line(text)
            done = step + 1
            stop = None
            if done % cfg.eval_every == 0 or done == cfg.max_steps:
                lines, stop = eval_fn(step, loss)
                for text in lines + ([f"# early stop: {stop}"] if stop else []):
                    line(text)
            if done % cfg.checkpoint_every == 0 or done == cfg.max_steps or stop:
                save_checkpoint(ckpt_path, params, done, config_lines(cfg), loop_state(),
                                keys=keys)
            if stop:
                break
    return {"steps_run": done - start, "final_loss": loss,
            "checkpoint": str(ckpt_path), "log": str(log_path)}


def run_pretraining(cfg: RunConfig, resume=None) -> dict:
    """Masked multimodal pretraining on the corpus; returns a summary dict."""
    utts = load_corpus(cfg.train_manifest_path(), cfg.codebook_path())
    env_cfg = env_encoder_config(cfg)
    for u in utts:
        _check_positions(env_cfg, u.name, u.raw_patches.shape[0], u.video_grid)
    batches, keys = _pretrain_inputs(cfg, utts)
    del utts  # whitening was the raw rows' last reader; the batches hold the rest

    model = EnvEncoder(env_cfg, seed=cfg.seed)
    start, best, misses = 0, math.inf, 0
    if resume is not None:
        ckpt = load_checkpoint(resume)
        restore_params(model.params, ckpt)
        _check_keys(cfg, resume, ckpt.keys, keys)
        start = ckpt.step
        if ckpt.loop:
            best_hex, misses = ckpt.loop.split(" ")
            best, misses = float.fromhex(best_hex), int(misses)
        if cfg.patience and misses >= cfg.patience:  # it stopped early: nothing to run
            start = cfg.max_steps

    def train_step(step, items):
        loss, ppl = pretrain_step(model, [batches[i] for i in items], cfg.optimizer,
                                  step, seed=cfg.seed)
        width, prob = mask_params_at(env_cfg.schedule, step)
        return loss, (f"step={step} loss={loss:.6f} ppl={ppl:.6f} "
                      f"mask_w={width} mask_p={prob:.6f}")

    def patience(step, loss):
        nonlocal best, misses
        best, misses = (loss, 0) if loss < best - 1e-6 else (best, misses + 1)
        stop = cfg.patience and misses >= cfg.patience
        return [], f"no improvement in {misses} evals" if stop else None

    summary = _train_loop(cfg, "pretrain.log", len(batches), train_step, patience,
                          model.params, cfg.pretrain_ckpt_path(), start,
                          lambda: f"{best.hex()} {misses}", keys)
    return {**summary, "masked_accuracy": masked_accuracy(model, batches, seed=cfg.seed),
            "model": model}


def _load_model(ckpt_path, asr: bool = False):
    """The environment encoder (or, with `asr`, the ASR model) a checkpoint
    holds, built from the config snapshot it stores, and the checkpoint's
    keys. A snapshot that no longer parses, such as one with a key since
    removed, fails with one line naming the checkpoint."""
    ckpt = load_checkpoint(ckpt_path)
    try:
        snap = parse_config_lines(ckpt.config_lines, check_paths=False)
    except ValueError as exc:
        raise ValueError(f"checkpoint {ckpt_path} holds a config snapshot that does not "
                         f"load ({exc}); re-run the stage that wrote it") from None
    if asr:
        model = AsrModel(conformer_config(snap, vocab_size=len(SYMBOLS)), seed=None)
    else:
        model = EnvEncoder(env_encoder_config(snap), seed=None)
    restore_params(model.params, ckpt)
    return model, ckpt.keys


def _check_keys(cfg: RunConfig, ckpt_path, ckpt_keys, keys) -> None:
    """Fail, naming the checkpoint and the file, unless the checkpoint, whose
    keys are `ckpt_keys`, was trained with the derived files keyed `keys`."""
    for kind, key in keys.items():
        if ckpt_keys.get(kind) != key:
            path = store_path(cfg.codebook_path(), kind)
            raise ValueError(f"checkpoint {ckpt_path} was not trained with {path} "
                             f"(another {kind} key); re-run the stage that wrote it")


def _attach_env(cfg: RunConfig, manifest, names, examples, model_cfg, keys):
    """Set the env embeddings of `examples` (utterances `names` of the
    corpus `manifest`) from the corpus's env directory in codebook_dir,
    recording them under out_dir/env_cache, and return (env model, its
    parameter hash), or (None, None) when `model_cfg` is the baseline. The
    env model is the pretraining checkpoint, which must be `model_cfg.env_dim`
    wide and trained with the derived files keyed `keys`; every check runs
    before any entry or record is written."""
    if model_cfg.fusion_mode != CROSS:
        return None, None
    ckpt_path = cfg.pretrain_ckpt_path()
    if not Path(ckpt_path).is_file():
        raise ValueError(f"cross-attention needs a pretraining checkpoint at {ckpt_path}")
    env_model, ckpt_keys = _load_model(ckpt_path)
    if env_model.config.model_dim != model_cfg.env_dim:
        raise ValueError(
            f"pretraining checkpoint {ckpt_path} has model_dim "
            f"{env_model.config.model_dim}, but the ASR model's "
            f"pretrain.model_dim is {model_cfg.env_dim}")
    # env extraction is audio-only, so video grids never reach the tables here
    for name, ex in zip(names, examples):
        _check_positions(env_model.config, name, ex.features.shape[0], None)
    _check_keys(cfg, ckpt_path, ckpt_keys, keys)
    model_hash = parameter_hash(env_model.params)
    cache = store_path(cfg.codebook_path(), "corpus_env", manifest)
    record = cfg.out_path() / "env_cache"
    record.mkdir(parents=True, exist_ok=True)
    for name, ex in zip(names, examples):
        ex.env, key = cached_env_embeddings(cache, name, env_model, ex.features, model_hash)
        write_array(record / f"{name}.env", ex.env, key)
    return env_model, model_hash


def _decode_corpus(model, refs, examples):
    """(reference, hypothesis) word pairs, the references being `refs`, and
    hypothesis lines, greedy-decoded from no-grad packed encoder passes over
    consecutive utterances of at most `ENCODE_ROWS` encoder rows in all (or
    one longer utterance)."""
    lengths = model.encoded_lengths([ex.features for ex in examples])
    pairs = []
    hyps = []
    lo = 0
    while lo < len(examples):
        hi, rows = lo + 1, lengths[lo]
        while hi < len(examples) and rows + lengths[hi] <= ENCODE_ROWS:
            rows, hi = rows + lengths[hi], hi + 1
        with ad.no_grad():
            enc = model.encode([ex.features for ex in examples[lo:hi]],
                               [ex.env for ex in examples[lo:hi]]).data
        for ref, utt_enc in zip(refs[lo:hi], np.split(enc, np.cumsum(lengths[lo:hi])[:-1])):
            hyp = [SYMBOLS[k] for k in greedy_decode(model, utt_enc)]
            pairs.append((ref, hyp))
            hyps.append(" ".join(hyp))
        lo = hi
    return pairs, hyps


def run_asr_training(cfg: RunConfig) -> dict:
    """Transducer training over frozen environment embeddings."""
    model_cfg = conformer_config(cfg, vocab_size=len(SYMBOLS))
    manifest = cfg.train_manifest_path()
    utts = load_corpus(manifest, cfg.codebook_path(), video=False)
    whitener = ensure_whitener(cfg.codebook_path(), utts)
    utts.store_features()
    names, refs, examples = _asr_examples(utts, whitener, model_cfg.dtype)
    del utts
    frames, shortest = min(zip((ex.features.shape[0] for ex in examples), names))
    policy = cfg.augment
    if policy.time_width > frames:
        raise ValueError(f"augment.time_width = {policy.time_width} exceeds the "
                         f"{frames} frames of utterance {shortest}")
    if policy.freq_width > model_cfg.feature_dim:
        raise ValueError(f"augment.freq_width = {policy.freq_width} exceeds the "
                         f"{model_cfg.feature_dim} feature dims")
    keys = {"whitener": whitener.key}
    env_model, env_hash_before = _attach_env(cfg, manifest, names, examples, model_cfg,
                                             keys)

    model = AsrModel(model_cfg, seed=cfg.seed)
    latest_wer = None

    def train_step(step, items):
        loss = asr_step(model, examples, items, policy, cfg.optimizer, step, cfg.seed)
        return loss, f"step={step} loss={loss:.6f}"

    def evaluate(step, _loss):
        nonlocal latest_wer
        pairs, _ = _decode_corpus(model, refs, examples)
        latest_wer, counts, _ = corpus_wer(pairs)
        stop = latest_wer <= cfg.asr.early_stop_wer  # WER >= 0: never when negative
        return ([f"# eval step={step} {format_wer_report(latest_wer, counts)}"],
                f"wer {latest_wer:.4f}" if stop else None)

    summary = _train_loop(cfg, "train_asr.log", len(examples), train_step, evaluate,
                          model.params, cfg.asr_ckpt_path(), keys=keys)
    env_hash_after = None if env_model is None else parameter_hash(env_model.params)
    return {**summary, "final_wer": latest_wer, "env_hash_before": env_hash_before,
            "env_hash_after": env_hash_after, "model": model}


def run_eval(cfg: RunConfig) -> dict:
    """Greedy-decode the eval manifest and report pooled corpus WER."""
    ckpt_path = cfg.asr_ckpt_path()
    if not ckpt_path.is_file():
        raise ValueError(f"ASR checkpoint not found: {ckpt_path}")
    model, ckpt_keys = _load_model(ckpt_path, asr=True)

    manifest = cfg.eval_manifest_path()
    utts = load_corpus(manifest, cfg.codebook_path(), video=False)
    whitener_path = store_path(cfg.codebook_path(), "whitener")
    if not whitener_path.is_file():
        raise ValueError(f"whitener not found: {whitener_path} (run the training stages first)")
    whitener = load_whitener(whitener_path)
    keys = {"whitener": whitener.key}
    _check_keys(cfg, ckpt_path, ckpt_keys, keys)
    names, refs, examples = _asr_examples(utts, whitener, model.config.dtype)
    _attach_env(cfg, manifest, names, examples, model.config, keys)
    utts.store_features()  # only once every input check has passed
    del utts
    pairs, hyps = _decode_corpus(model, refs, examples)
    rate, counts, ref_words = corpus_wer(pairs)
    out_dir = cfg.out_path()
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_lines(out_dir / "hypotheses.txt", hyps)
    report = format_wer_report(rate, counts)
    _write_lines(out_dir / "wer_report.txt", [report])
    print(report)
    return {"wer": rate, "report": report, "reference_words": ref_words,
            "hypotheses": str(out_dir / "hypotheses.txt")}
