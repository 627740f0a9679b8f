"""The one binary format of the pipeline, the tensor container.

Checkpoints, the whitener, codebooks, corpus clips and env-cache entries are
all containers: the magic line ``envasr-<kind> <version>``, ``header <n>``
and n lines the kind defines, ``tensors <n> <f32|f64>`` and one ``name
shape`` line per array, then the arrays, little-endian and back to back.
Clips and env-cache entries are the ``envasr-array`` kind: one float32 array
and a ``key`` header line, empty for clips.

Every file here is written through ``atomic_write``, so a failed write never
leaves a truncated file behind.
"""

import math
import os
from collections import namedtuple
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


def header_field(lines, tag: str) -> str:
    """The value of the next of `lines`, an iterator: a ``<tag>[ <value>]`` line."""
    line = next(lines, "")
    name, _, value = line.partition(" ")
    if name != tag:
        raise ValueError(f"expected '{tag} ...', got {line!r}")
    return value


def write_tensors(path, magic: str, header_lines, named) -> None:
    """Write a container file: `magic`, the `header_lines`, then the
    `(name, array)` pairs in the first array's dtype, float32 or float64."""
    token = TOKEN_FOR[np.dtype(named[0][1].dtype)]
    head = [magic, f"header {len(header_lines)}", *header_lines,
            f"tensors {len(named)} {token}",
            *(f"{name} {shape_token(arr.shape)}" for name, arr in named)]
    with atomic_write(path) as fh:
        fh.write(("\n".join(head) + "\n").encode("utf-8"))
        for _, arr in named:
            fh.write(np.ascontiguousarray(arr, DTYPE_TOKENS[token]))


def read_tensors(path, magic: str, names, parse):
    """`parse(header, arrays)` of a file `write_tensors` wrote with `magic`
    and the arrays `names`: `header` iterates its header lines, `arrays`
    holds read-only views of one payload read, in `names` order. Another
    version of the same kind fails with one line naming the file, and so do
    a bad magic line, a malformed table, other arrays than `names`, a payload
    whose length is not the table's and any ValueError of `parse`, as
    ``corrupt <kind> <path>: ...``."""
    kind = magic.rpartition(" ")[0]
    what = kind.removeprefix("envasr-")
    with open(path, "rb") as fh:
        first = fh.readline().decode("utf-8", "replace").rstrip("\n")
        if first != magic and first.startswith(kind + " "):
            raise ValueError(f"{path} is {what} format {first[len(kind) + 1:]}, "
                             f"which is no longer read; re-run the stage that wrote it")
        try:
            if first != magic:
                raise ValueError("bad magic line")
            return _read_body(fh, names, parse)
        except ValueError as exc:
            raise ValueError(f"corrupt {what} {path}: {exc}") from None


def _read_body(fh, names, parse):
    """`read_tensors` past the magic line of the open file `fh`; any fault
    raises a bare one-line reason."""
    lines = (raw.decode("utf-8").rstrip("\n") for raw in iter(fh.readline, b""))
    header = [next(lines, "") for _ in range(int(header_field(lines, "header")))]
    count, token = header_field(lines, "tensors").split(" ")
    if token not in DTYPE_TOKENS:
        raise ValueError(f"unknown dtype token {token!r}")
    table = [next(lines, "").split(" ") for _ in range(int(count))]
    table = [(name, parse_shape(shape)) for name, shape in table]
    if [name for name, _ in table] != list(names):
        raise ValueError(f"its arrays are {', '.join(n for n, _ in table)}, "
                         f"not {', '.join(names)}")
    dtype = DTYPE_TOKENS[token]
    counts = [math.prod(shape) for _, shape in table]
    size = os.fstat(fh.fileno()).st_size - fh.tell()
    if size != sum(counts) * dtype.itemsize:
        raise ValueError(f"the payload holds {size} bytes, "
                         f"its tensor table needs {sum(counts) * dtype.itemsize}")
    parts = np.split(np.frombuffer(fh.read(size), dtype), np.cumsum(counts)[:-1])
    return parse(iter(header), tuple(part.reshape(shape)
                                     for (_, shape), part in zip(table, parts)))


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


ARRAY_MAGIC = "envasr-array 1"
KeyedArray = namedtuple("KeyedArray", "array key")


def write_array(path, arr, key: str = "") -> None:
    """`arr` as float32 and the header line ``key <key>``: a corpus clip
    (key empty) or an env-cache entry."""
    write_tensors(path, ARRAY_MAGIC, [f"key {key}"], [("array", np.asarray(arr, np.float32))])


def read_array(path) -> KeyedArray:
    """The read-only array and the key of a file `write_array` wrote; any
    other file fails with a one-line reason that does not name it."""
    with open(path, "rb") as fh:
        if fh.readline() != f"{ARRAY_MAGIC}\n".encode():
            raise ValueError(f"not an {ARRAY_MAGIC} file")
        return _read_body(fh, ("array",), lambda lines, arrays:
                          KeyedArray(arrays[0], header_field(lines, "key")))


def read_raw_array(path) -> np.ndarray:
    """`read_array(path).array`, a clip's or an env-cache entry's."""
    return read_array(path).array
