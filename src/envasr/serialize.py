"""Binary array formats shared across the pipeline.

Two formats live here:

* tensor records: a text manifest line ``name shape dtype byte_offset`` per
  tensor followed by a concatenated little-endian row-major payload. Used by
  codebook and whitener files; checkpoints share its shape and dtype tokens.
* raw arrays: a single text header ``ndim d0 d1 ... dn`` followed by a
  little-endian float32 payload. Used for video clips and cached embeddings.

Checkpoints, codebooks, the whitener, raw arrays and env-cache keys are
written through ``atomic_write``, so a failed write never leaves a truncated
file behind.
"""

import os
from contextlib import contextmanager, suppress

import numpy as np

DTYPE_TOKENS = {"f32": np.dtype("<f4"), "f64": np.dtype("<f8")}
TOKEN_FOR = {np.dtype(np.float32): "f32", np.dtype(np.float64): "f64"}


def shape_token(shape) -> str:
    if len(shape) == 0:
        raise ValueError("0-d tensors are not serializable")
    return "x".join(str(int(d)) for d in shape)


def parse_shape(token: str):
    return tuple(int(d) for d in token.split("x"))


def pack_tensors(named):
    """Serialize (name, array) pairs -> (manifest lines, payload bytes)."""
    lines = []
    chunks = []
    offset = 0
    for name, arr in named:
        if " " in name:
            raise ValueError(f"tensor name may not contain spaces: {name!r}")
        arr = np.ascontiguousarray(arr)
        if arr.dtype not in TOKEN_FOR:
            raise ValueError(f"unsupported dtype {arr.dtype} for tensor {name}")
        token = TOKEN_FOR[arr.dtype]
        raw = arr.astype(DTYPE_TOKENS[token], copy=False).tobytes()
        lines.append(f"{name} {shape_token(arr.shape)} {token} {offset}")
        chunks.append(raw)
        offset += len(raw)
    return lines, b"".join(chunks)


def unpack_tensors(lines, payload: bytes) -> dict:
    """Inverse of pack_tensors; arrays come back in native byte order."""
    out = {}
    for line in lines:
        fields = line.split()
        if len(fields) != 4:
            raise ValueError(f"malformed tensor manifest line: {line!r}")
        name, shape_tok, dtype_tok, off_tok = fields
        if dtype_tok not in DTYPE_TOKENS:
            raise ValueError(f"unknown dtype token {dtype_tok!r}")
        shape = parse_shape(shape_tok)
        dt = DTYPE_TOKENS[dtype_tok]
        offset = int(off_tok)
        count = int(np.prod(shape))
        end = offset + count * dt.itemsize
        if end > len(payload):
            raise ValueError(f"payload truncated for tensor {name}")
        arr = np.frombuffer(payload, dtype=dt, count=count, offset=offset)
        out[name] = arr.reshape(shape).astype(dt.newbyteorder("="), copy=True)
    return out


@contextmanager
def atomic_write(path):
    """Binary handle whose bytes replace `path` only once the block completes.

    They go to `<path>.<pid>.tmp` in the same directory, which `os.replace`
    then moves over `path`; if anything fails the temp file is removed and
    the previous `path`, if any, is left as it was.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_raw_array(path, arr) -> None:
    arr = np.ascontiguousarray(arr, dtype="<f4")
    header = " ".join([str(arr.ndim)] + [str(d) for d in arr.shape])
    with atomic_write(path) as fh:
        fh.write((header + "\n").encode("ascii"))
        fh.write(arr.tobytes())


def read_raw_array(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").split()
        if not header:
            raise ValueError(f"empty raw-array header in {path}")
        ndim = int(header[0])
        if len(header) != ndim + 1:
            raise ValueError(f"bad raw-array header in {path}")
        shape = tuple(int(d) for d in header[1:])
        count = int(np.prod(shape)) if shape else 1
        raw = fh.read(count * 4)
        if len(raw) != count * 4:
            raise ValueError(f"raw-array payload truncated in {path}")
        return np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float32)
