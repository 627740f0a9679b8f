"""Checkpoint files (``envasr-checkpoint 2``): a text header and layout
table, then a parameter set's flat buffers as they are.

The header holds the optimization ``step``, the set's one Adam step
``adam_t``, the training loop's state (``loop``: text the stage driver
writes and reads, empty when it keeps none) and the run's config snapshot.
The layout table is ``params <count> <f32|f64>`` and one ``name shape``
line per parameter in name order. The payload is the flat parameter, m and
v buffers, little-endian, back to back. Save -> load -> save is
byte-identical, and training resumes exactly.
"""

import os
from dataclasses import dataclass

import numpy as np

from ..optim import ParameterSet
from ..serialize import DTYPE_TOKENS, TOKEN_FOR, atomic_write, parse_shape, shape_token

_MAGIC = "envasr-checkpoint 2"


@dataclass
class Checkpoint:
    step: int
    t: int
    loop: str
    config_lines: list
    layout: list  # (name, shape) per parameter, in name order
    flat: tuple   # parameters, m and v: read-only views of the payload


def save_checkpoint(path, params: ParameterSet, step: int, config_lines,
                    loop: str = "") -> None:
    data, _, m, v = params.flat
    token = TOKEN_FOR[data.dtype]
    layout = [f"{name} {shape_token(shape)}" for name, (_, _, shape) in params.layout.items()]
    head = [_MAGIC, f"step {int(step)}", f"adam_t {params.t}", f"loop {loop}".rstrip(" "),
            f"config {len(config_lines)}", *config_lines,
            f"params {len(layout)} {token}", *layout]
    with atomic_write(path) as fh:
        fh.write(("\n".join(head) + "\n").encode("utf-8"))
        for buf in (data, m, v):
            fh.write(buf.astype(DTYPE_TOKENS[token], copy=False))


def _field(fh, tag: str) -> str:
    """The value of the next header line, which must be ``<tag>[ <value>]``."""
    line = fh.readline().decode("utf-8").rstrip("\n")
    name, _, value = line.partition(" ")
    if name != tag:
        raise ValueError(f"expected '{tag} ...', got {line!r}")
    return value


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        magic = fh.readline().decode("utf-8", "replace").rstrip("\n")
        if magic.startswith("envasr-checkpoint ") and magic != _MAGIC:
            raise ValueError(f"{path} is checkpoint format {magic.split(' ', 1)[1]}, "
                             f"which is no longer read; re-run the stage that wrote it")
        if magic != _MAGIC:
            raise ValueError("corrupt checkpoint manifest: bad magic line")
        try:
            step = int(_field(fh, "step"))
            t = int(_field(fh, "adam_t"))
            loop = _field(fh, "loop")
            config_lines = [fh.readline().decode("utf-8").rstrip("\n")
                            for _ in range(int(_field(fh, "config")))]
            count, token = _field(fh, "params").split(" ")
            if token not in DTYPE_TOKENS:
                raise ValueError(f"unknown dtype token {token!r}")
            layout = []
            for _ in range(int(count)):
                name, shape = fh.readline().decode("utf-8").rstrip("\n").split(" ")
                layout.append((name, parse_shape(shape)))
        except ValueError as exc:
            raise ValueError(f"corrupt checkpoint manifest: {exc}") from None
        dtype = DTYPE_TOKENS[token]
        n = sum(int(np.prod(shape)) for _, shape in layout)
        size = os.fstat(fh.fileno()).st_size - fh.tell()
        if size != 3 * n * dtype.itemsize:
            raise ValueError(f"corrupt checkpoint: the payload holds {size} bytes, "
                             f"its layout table needs {3 * n * dtype.itemsize}")
        payload = fh.read(size)
    flat = tuple(np.frombuffer(payload, dtype, count=n, offset=i * n * dtype.itemsize)
                 for i in range(3))
    return Checkpoint(step, t, loop, config_lines, layout, flat)


def restore_params(params: ParameterSet, ckpt: Checkpoint) -> None:
    """Copy parameters, Adam moments and the Adam step into `params` in
    place; the checkpoint must hold exactly the set's names and shapes."""
    shapes = dict(ckpt.layout)
    for name, (_, _, shape) in params.layout.items():
        if name not in shapes:
            raise ValueError(f"checkpoint is missing tensor p.{name}")
        if shapes[name] != shape:
            raise ValueError(f"shape mismatch for p.{name}: checkpoint {shapes[name]}, "
                             f"model {shape}")
    extra = sorted(shapes.keys() - params.layout.keys())
    if extra:
        raise ValueError(f"checkpoint holds parameters unknown to the model: "
                         f"{', '.join(extra)}")
    if ckpt.layout != [(name, shape) for name, (_, _, shape) in params.layout.items()]:
        raise ValueError("corrupt checkpoint: its layout table is not in name order")
    data, _, m, v = params.flat
    for target, source in zip((data, m, v), ckpt.flat):
        np.copyto(target, source, casting="unsafe")
    params.t = ckpt.t
    for _, p in params.items():
        p.grad = None
