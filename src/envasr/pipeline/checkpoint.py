"""Checkpoint files: the tensor container of ``serialize``, kind
``envasr-checkpoint 3``, holding a parameter set's flat buffers as they are.

The header lines are the optimization ``step``, the set's one Adam step
``adam_t``, the training loop's state (``loop``: text the stage driver
writes and reads, empty when it keeps none), ``keys``: the key of each
derived file the run trained on as ``<kind>=<key>`` (``whitener``, and for
pretraining ``audio_codebook`` and, when the corpus has clips,
``video_codebook``), ``config <n>`` and the run's config snapshot,
then ``params <count>`` and one ``name shape`` line per parameter in name
order. The arrays are the flat parameter, m and v buffers: ``data``, ``m``
and ``v``. Save -> load -> save is byte-identical, and training resumes
exactly.
"""

import math
from dataclasses import dataclass

import numpy as np

from ..optim import ParameterSet
from ..serialize import header_field, parse_shape, read_tensors, shape_token, write_tensors

_MAGIC = "envasr-checkpoint 3"


@dataclass
class Checkpoint:
    step: int
    t: int
    loop: str
    keys: dict    # derived-file kind -> key of the file the run trained on
    config_lines: list
    layout: list  # (name, shape) per parameter, in name order
    flat: tuple   # parameters, m and v: read-only views of the payload


def save_checkpoint(path, params: ParameterSet, step: int, config_lines,
                    loop: str = "", keys=None) -> None:
    data, _, m, v = params.flat
    keyed = " ".join(f"{kind}={key}" for kind, key in (keys or {}).items())
    layout = [f"{name} {shape_token(shape)}" for name, (_, _, shape) in params.layout.items()]
    header = [f"step {int(step)}", f"adam_t {params.t}", f"loop {loop}".rstrip(" "),
              f"keys {keyed}".rstrip(" "), f"config {len(config_lines)}", *config_lines,
              f"params {len(layout)}", *layout]
    write_tensors(path, _MAGIC, header, [("data", data), ("m", m), ("v", v)])


def load_checkpoint(path) -> Checkpoint:
    return read_tensors(path, _MAGIC, ("data", "m", "v"), _parse)


def _parse(lines, flat) -> Checkpoint:
    step = int(header_field(lines, "step"))
    t = int(header_field(lines, "adam_t"))
    loop = header_field(lines, "loop")
    keys = dict(item.split("=") for item in header_field(lines, "keys").split())
    config_lines = [next(lines, "") for _ in range(int(header_field(lines, "config")))]
    layout = [next(lines, "").split(" ") for _ in range(int(header_field(lines, "params")))]
    layout = [(name, parse_shape(shape)) for name, shape in layout]
    n = sum(math.prod(shape) for _, shape in layout)
    if any(a.shape != (n,) for a in flat):
        raise ValueError(f"its arrays are not data, m and v of the {n} values "
                         f"its parameter layout needs")
    return Checkpoint(step, t, loop, keys, config_lines, layout, flat)


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
