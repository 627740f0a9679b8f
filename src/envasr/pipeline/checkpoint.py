"""Checkpoint files: text manifest plus concatenated tensor payload.

A checkpoint stores every parameter and its Adam moments, the Adam step of
each parameter (the set's `t`, or 0 for a frozen one), the optimization step
(written twice, as `step` and `schedule_step`, which must agree), and a
snapshot of the run config, so that save -> load -> save is byte-identical
and training resumes exactly.
"""

from dataclasses import dataclass

import numpy as np

from ..optim import ParameterSet
from ..serialize import atomic_write, pack_tensors, unpack_tensors

_MAGIC = "envasr-checkpoint 1"


@dataclass
class Checkpoint:
    step: int
    config_lines: list
    tensors: dict
    adam_t: dict


def save_checkpoint(path, params: ParameterSet, step: int, config_lines) -> None:
    named = []
    adam_lines = []
    for name, p in params.items():
        views = params.views(name)
        named += [(f"p.{name}", views.data), (f"m.{name}", views.m), (f"v.{name}", views.v)]
        adam_lines.append(f"{name} {params.t if p.requires_grad else 0}")
    manifest, payload = pack_tensors(named)
    head = [_MAGIC, f"step {int(step)}", f"schedule_step {int(step)}",
            f"adam_t {len(adam_lines)}", *adam_lines,
            f"config {len(list(config_lines))}", *config_lines,
            f"tensors {len(manifest)}", *manifest,
            f"payload {len(payload)}"]
    with atomic_write(path) as fh:
        fh.write(("\n".join(head) + "\n").encode("utf-8"))
        fh.write(payload)


def _expect(line: str, tag: str) -> str:
    parts = line.split(" ", 1)
    if parts[0] != tag or len(parts) != 2:
        raise ValueError(f"corrupt checkpoint manifest: expected '{tag} ...', got {line!r}")
    return parts[1]


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        # manifest is everything before the payload; its length is declared
        head_end = 0
        lines = []
        while True:
            nl = raw.index(b"\n", head_end)
            line = raw[head_end:nl].decode("utf-8")
            lines.append(line)
            head_end = nl + 1
            if line.startswith("payload "):
                break
    except ValueError as exc:
        raise ValueError("corrupt checkpoint manifest: no payload marker") from exc
    it = iter(lines)
    if next(it) != _MAGIC:
        raise ValueError("corrupt checkpoint manifest: bad magic line")
    step = int(_expect(next(it), "step"))
    schedule_step = int(_expect(next(it), "schedule_step"))
    if schedule_step != step:
        raise ValueError(f"corrupt checkpoint: step {step} but schedule_step "
                         f"{schedule_step}; the two must agree")
    adam_t = {}
    for _ in range(int(_expect(next(it), "adam_t"))):
        name, t = next(it).rsplit(" ", 1)
        adam_t[name] = int(t)
    config_lines = [next(it) for _ in range(int(_expect(next(it), "config")))]
    manifest = [next(it) for _ in range(int(_expect(next(it), "tensors")))]
    payload_len = int(_expect(next(it), "payload"))
    payload = raw[head_end : head_end + payload_len]
    if len(payload) != payload_len:
        raise ValueError("corrupt checkpoint: truncated payload")
    tensors = unpack_tensors(manifest, payload)
    return Checkpoint(step, config_lines, tensors, adam_t)


def restore_params(params: ParameterSet, ckpt: Checkpoint) -> None:
    """Load parameters, Adam moments and the set's Adam step in place; shapes
    must match, and every trained parameter must have the same Adam step."""
    steps = {}
    for name, p in params.items():
        views = params.views(name)
        for prefix, target in (("p", views.data), ("m", views.m), ("v", views.v)):
            key = f"{prefix}.{name}"
            if key not in ckpt.tensors:
                raise ValueError(f"checkpoint is missing tensor {key}")
            arr = ckpt.tensors[key]
            if arr.shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {key}: checkpoint {arr.shape}, "
                    f"model {p.data.shape}")
            np.copyto(target, arr, casting="unsafe")
        if name not in ckpt.adam_t:
            raise ValueError(f"checkpoint is missing Adam step for {name}")
        if p.requires_grad:
            steps.setdefault(ckpt.adam_t[name], name)
        p.grad = None
    if len(steps) > 1:
        (t1, a), (t2, b) = sorted(steps.items())[:2]
        raise ValueError(f"checkpoint's trained parameters disagree on their Adam "
                         f"step: {a} at {t1}, {b} at {t2}")
    params.t = next(iter(steps), 0)
    extra = sorted({k.split(".", 1)[1] for k in ckpt.tensors} - set(params.names()))
    if extra:
        raise ValueError(f"checkpoint holds parameters unknown to the model: "
                         f"{', '.join(extra)}")
