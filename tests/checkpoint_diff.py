"""Compare two checkpoints header field by header field and tensor by tensor.

    PYTHONPATH=src python tests/checkpoint_diff.py A.ckpt B.ckpt

Header fields (``step``, the Adam step ``adam_t``, the loop state ``loop``,
each derived-file key ``key <kind>`` and each config key ``config <key>``)
that differ are printed first, with their value in A and in B (``None`` when
a file lacks the field). Each
checkpoint tensor (``p.<name>`` parameter, ``m.<name>`` / ``v.<name>``
Adam moments), a slice of a flat buffer through the layout table, is
matched by name. For a tensor in both files the script
prints ``identical`` when dtype, shape and bytes agree, and otherwise the
size of the difference, max|a - b| / max|a| (``inf`` when A is all zeros or
the shapes differ).
Names found in only one file are listed after. A last line sums it up.
The exit code is 1 when a tensor differs or is in one file only, as with
``artifact_hashes.py --compare``, and 0 otherwise: header differences are
printed but do not change it.
"""

import argparse
import sys

import numpy as np

from envasr.pipeline.checkpoint import load_checkpoint


def relative_diff(a: np.ndarray, b: np.ndarray):
    """None when dtype, shape and bytes agree, else max|a - b| / max|a|."""
    if a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes():
        return None
    if a.shape != b.shape:
        return np.inf
    diff = float(np.abs(a.astype(np.float64) - b).max())
    scale = float(np.abs(a).max())
    return diff / scale if scale else np.inf


def tensors(ckpt) -> dict:
    """Each ``p.``/``m.``/``v.`` tensor, sliced from the flat buffers through
    the layout table."""
    out, lo = {}, 0
    for name, shape in ckpt.layout:
        hi = lo + int(np.prod(shape))
        for prefix, buf in zip("pmv", ckpt.flat):
            out[f"{prefix}.{name}"] = buf[lo:hi].reshape(shape)
        lo = hi
    return out


def header_diffs(a, b):
    """(field, value in A, value in B) for every header field that differs."""
    def fields(ckpt):
        config = dict(line.partition(" = ")[::2] for line in ckpt.config_lines)
        return {"step": ckpt.step, "adam_t": ckpt.t, "loop": ckpt.loop,
                **{f"key {kind}": key for kind, key in ckpt.keys.items()},
                **{f"config {key}": value for key, value in config.items()}}

    fa, fb = fields(a), fields(b)
    return [(key, fa.get(key), fb.get(key)) for key in {**fa, **fb}
            if fa.get(key) != fb.get(key)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="first checkpoint")
    parser.add_argument("b", help="second checkpoint")
    args = parser.parse_args(argv)
    a, b = load_checkpoint(args.a), load_checkpoint(args.b)
    header = header_diffs(a, b)
    for key, va, vb in header:
        print(f"{'header':<12}  {key}: {va!r} in A, {vb!r} in B")
    ta, tb = tensors(a), tensors(b)
    common = sorted(ta.keys() & tb.keys())
    rel = {name: relative_diff(ta[name], tb[name]) for name in common}
    for name in common:
        print(f"{'identical' if rel[name] is None else f'rel {rel[name]:.3g}':<12}  {name}")
    only_a, only_b = sorted(ta.keys() - tb.keys()), sorted(tb.keys() - ta.keys())
    for label, names in (("only in A", only_a), ("only in B", only_b)):
        for name in names:
            print(f"{label:<12}  {name}")
    differ = [name for name in common if rel[name] is not None]
    worst = max(differ, key=rel.get, default=None)
    largest = f", largest rel {rel[worst]:.3g} ({worst})" if worst else ""
    print(f"{len(common) - len(differ)} identical, {len(differ)} differ{largest}, "
          f"{len(only_a)} only in A, {len(only_b)} only in B, "
          f"{len(header)} header fields differ")
    return 1 if differ or only_a or only_b else 0


if __name__ == "__main__":
    sys.exit(main())
