"""Audio and video front ends: each step takes and returns plain arrays.

Audio: `decode_wav` gives a WAV file's bytes as 16 kHz mono samples in
[-1, 1]; `compute_lfbe` turns them into (T, 64) log mel-filterbank energies
(25 ms Hann window, 10 ms hop, 512-point FFT, 64 triangular filters from
0 Hz to 8 kHz); `stack_frames`
concatenates non-overlapping stacks of 3 frames into (T // 3, 192) patches;
`whiten_clip` whitens patch rows with global statistics (a `Whitener`) and
clips them to [-1.2, 1.2].

`compute_lfbe` windows, transforms and squares `LFBE_BLOCK` = 128 frames at a
time in two reused buffers, so no (T, 400) frame matrix or (T, 257) complex
spectrum of a whole utterance is built; each of those steps is per row, so
the result does not depend on the block size. The mel projection stays one
(T, 257) @ (257, 64) matmul per utterance: a BLAS matmul's rounding can
depend on its row count, so splitting it into blocks could change the
features' bytes.

Video: `extract_video_patches` turns a float [0,1] clip (3k frames, sides
multiples of 16) into flattened non-overlapping tubelets of 3 frames x 16x16
pixels x RGB, (N, 2304) patches, and the (time, rows, cols) grid they tile.
"""

import io
import wave as wave_mod
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

SAMPLE_RATE = 16000
FRAME_LENGTH = 400   # 25 ms at 16 kHz
FRAME_SHIFT = 160    # 10 ms
N_FFT = 512
N_MELS = 64
LOG_FLOOR = 1e-10
CLIP_BOUND = 1.2
STACK = 3            # LFBE frames per audio patch
TUBE_FRAMES = 3      # video frames per tubelet
TUBE_PIXELS = 16
AUDIO_PATCH_DIM = STACK * N_MELS
VIDEO_PATCH_DIM = TUBE_FRAMES * TUBE_PIXELS * TUBE_PIXELS * 3
STD_FLOOR = 1e-6
LFBE_BLOCK = 128     # frames per FFT block in compute_lfbe
# Version of the audio front end's output. `pipeline.data` keys stored audio
# patches by it and the audio constants above: bump it whenever a change to
# `decode_wav`, `compute_lfbe` or `stack_frames` can change the bytes they
# return, or stored patches of the old front end will keep being read.
FRONT_END_VERSION = 1


@dataclass
class Whitener:
    mean: np.ndarray
    std: np.ndarray
    key: str = ""                 # what it was fitted on; see pipeline.data

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.maximum(np.asarray(self.std, dtype=np.float64), STD_FLOOR)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank():
    """Triangular mel filter weights, (N_FFT // 2 + 1, N_MELS), spaced evenly
    on the mel scale from 0 Hz to the Nyquist frequency."""
    points = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(SAMPLE_RATE / 2), N_MELS + 2))
    bins = N_FFT // 2 + 1
    freqs = np.arange(bins) * SAMPLE_RATE / N_FFT
    weights = np.zeros((bins, N_MELS))
    for j in range(N_MELS):
        lo, center, hi = points[j], points[j + 1], points[j + 2]
        up = (freqs - lo) / max(center - lo, 1e-12)
        down = (hi - freqs) / max(hi - center, 1e-12)
        weights[:, j] = np.clip(np.minimum(up, down), 0.0, 1.0)
    return weights


_MEL_WEIGHTS = mel_filterbank()
_WINDOW = np.hanning(FRAME_LENGTH)


def compute_lfbe(samples: np.ndarray) -> np.ndarray:
    """(T, 64) log mel-filterbank energies of 16 kHz samples in [-1, 1]."""
    x = np.asarray(samples, dtype=np.float64)
    if x.size and not (-1.0 <= x.min() and x.max() <= 1.0):  # NaN fails both
        if not np.all(np.isfinite(x)):
            raise ValueError("waveform contains non-finite samples")
        raise ValueError("waveform samples must lie in [-1, 1]")
    if x.size < FRAME_LENGTH:
        raise ValueError(f"waveform too short: {x.size} < {FRAME_LENGTH} samples")
    frames = sliding_window_view(x, FRAME_LENGTH)[::FRAME_SHIFT]
    n = frames.shape[0]
    padded = np.zeros((min(n, LFBE_BLOCK), N_FFT))  # columns 400: stay zero
    spec = np.empty((padded.shape[0], N_FFT // 2 + 1), dtype=np.complex128)
    power = np.empty((n, N_FFT // 2 + 1))
    for lo in range(0, n, LFBE_BLOCK):
        rows = min(LFBE_BLOCK, n - lo)
        np.multiply(frames[lo:lo + rows], _WINDOW, out=padded[:rows, :FRAME_LENGTH])
        np.fft.rfft(padded[:rows], axis=1, out=spec[:rows])
        parts = spec[:rows].view(np.float64)  # real and imaginary parts interleaved
        np.multiply(parts, parts, out=parts)
        np.add(parts[:, 0::2], parts[:, 1::2], out=power[lo:lo + rows])
    energies = power @ _MEL_WEIGHTS
    np.maximum(energies, LOG_FLOOR, out=energies)
    return np.log(energies, out=energies)


def stack_frames(frames: np.ndarray) -> np.ndarray:
    """(T // 3, 192) patches: non-overlapping groups of 3 frames concatenated;
    the remainder is dropped."""
    t = frames.shape[0]
    if t < STACK:
        raise ValueError(f"need at least {STACK} frames, got {t}")
    n = t // STACK
    return frames[: n * STACK].reshape(n, STACK * frames.shape[1])


def fit_whitener(rows: np.ndarray) -> Whitener:
    """Global per-dimension mean/std over a (n, d) matrix of patch rows."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[0] < 2:
        raise ValueError("fit_whitener needs a matrix with at least 2 rows")
    return Whitener(rows.mean(axis=0), rows.std(axis=0))


def whiten_clip(rows: np.ndarray, whitener: Whitener) -> np.ndarray:
    """(x - mean) / std of (T, d) patch rows, then clamp to [-1.2, 1.2]."""
    if rows.shape[-1] != whitener.mean.shape[0]:
        raise ValueError("whitener dimension mismatch")
    z = (rows - whitener.mean) / whitener.std
    return np.clip(z, -CLIP_BOUND, CLIP_BOUND)


def extract_video_patches(frames: np.ndarray):
    """(patches, grid) of an (F, H, W, 3) clip: the (N, 2304) flattened
    non-overlapping 3x16x16 (x RGB) tubelets in time-major order, and the
    (time_steps, rows, cols) grid they tile."""
    x = np.asarray(frames, dtype=np.float64)
    if x.ndim != 4 or x.shape[3] != 3:
        raise ValueError("clip must have shape (F, H, W, 3)")
    f, h, w, c = x.shape
    if f % TUBE_FRAMES != 0:
        raise ValueError(f"frame count {f} not divisible by {TUBE_FRAMES}")
    if h % TUBE_PIXELS != 0 or w % TUBE_PIXELS != 0:
        raise ValueError(f"spatial dims {h}x{w} not divisible by {TUBE_PIXELS}")
    t, r, cols = f // TUBE_FRAMES, h // TUBE_PIXELS, w // TUBE_PIXELS
    x = x.reshape(t, TUBE_FRAMES, r, TUBE_PIXELS, cols, TUBE_PIXELS, c)
    x = x.transpose(0, 2, 4, 1, 3, 5, 6)
    return x.reshape(t * r * cols, VIDEO_PATCH_DIM), (t, r, cols)


def resample_linear(samples: np.ndarray, rate_in: int) -> np.ndarray:
    """`samples` at `rate_in` Hz, linearly interpolated to `SAMPLE_RATE`."""
    x = np.asarray(samples, dtype=np.float64)
    n_out = int(round(x.size * SAMPLE_RATE / rate_in))
    t_out = np.arange(n_out) * (rate_in / SAMPLE_RATE)
    return np.interp(t_out, np.arange(x.size), x)


def decode_wav(data: bytes) -> np.ndarray:
    """The float64 samples of the bytes of a PCM16 mono WAV at 16 kHz,
    resampled by linear interpolation from any other rate. Bytes that are not
    such a WAV, or end before its header or its samples do, fail with a
    one-line reason."""
    try:
        with wave_mod.open(io.BytesIO(data), "rb") as fh:
            if fh.getnchannels() != 1:
                raise ValueError("expected mono audio")
            if fh.getsampwidth() != 2:
                raise ValueError("expected 16-bit PCM")
            rate, frames = fh.getframerate(), fh.getnframes()
            raw = fh.readframes(frames)
    except EOFError:
        raise ValueError("the file ends inside its WAV header") from None
    except wave_mod.Error as exc:
        raise ValueError(f"not a WAV file: {exc}") from None
    if len(raw) != 2 * frames:
        raise ValueError(f"the file holds {len(raw)} of the {2 * frames} "
                         f"sample bytes its WAV header declares")
    samples = np.divide(np.frombuffer(raw, dtype="<i2"), 32768.0, dtype=np.float64)
    if rate != SAMPLE_RATE:
        samples = np.clip(resample_linear(samples, rate), -1.0, 1.0)
    return samples


def write_wav(path, samples: np.ndarray, sample_rate: int = SAMPLE_RATE) -> None:
    scaled = np.round(np.asarray(samples, dtype=np.float64) * 32768.0)
    pcm = np.clip(scaled, -32768, 32767).astype("<i2")
    with wave_mod.open(str(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(sample_rate)
        fh.writeframes(pcm.tobytes())
