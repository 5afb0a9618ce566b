"""Image representation and PGM I/O.

An image is a 2-D float64 numpy array of shape (height, width).  Samples are
real-valued and may leave [0, 255] while processing; quantization to 8-bit
happens only in :func:`save_pgm`.
"""

import numpy as np

__all__ = ["as_image", "load_pgm", "save_pgm"]


class PgmError(ValueError):
    """Malformed or unsupported PGM data."""


def as_image(data) -> np.ndarray:
    """Coerce array-like pixel data to a valid 2-D float64 image."""
    img = np.asarray(data, dtype=np.float64)
    if img.ndim != 2 or img.shape[0] < 1 or img.shape[1] < 1:
        raise ValueError(f"image must be 2-D and non-empty, got shape {img.shape}")
    if not np.all(np.isfinite(img)):
        raise ValueError("image contains non-finite samples")
    return img


def _read_header_tokens(data: bytes, count: int) -> tuple[list[int], int]:
    """Read `count` whitespace-separated integer tokens, skipping '#' comments.

    Returns the tokens and the offset just past the single whitespace byte
    that terminates the last token.
    """
    tokens: list[int] = []
    i = 0
    n = len(data)
    while len(tokens) < count:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i] == ord("#"):
            j = data.find(b"\n", i)
            i = n if j < 0 else j + 1
            continue
        j = i
        while j < n and not data[j : j + 1].isspace():
            j += 1
        if j == i:
            raise PgmError("truncated PGM header")
        try:
            tokens.append(int(data[i:j]))
        except ValueError:
            raise PgmError(f"non-integer PGM header token {data[i:j]!r}") from None
        i = j
    if i >= n or not data[i : i + 1].isspace():
        raise PgmError("missing whitespace after PGM header")
    return tokens, i + 1


def load_pgm(path) -> np.ndarray:
    """Load a binary (P5) or ASCII (P2) PGM file, maxval <= 255.

    Samples are rescaled from [0, maxval] to [0, 255], the range the metrics
    score against; at maxval 255 they load unchanged.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    magic = data[:2]
    if magic not in (b"P5", b"P2"):
        raise PgmError(f"unsupported PNM format {magic!r}; only P5/P2 grayscale supported")
    (width, height, maxval), offset = _read_header_tokens(data[2:], 3)
    offset += 2
    if width < 1 or height < 1:
        raise PgmError(f"invalid PGM dimensions {width}x{height}")
    if maxval > 255:
        raise PgmError(f"maxval {maxval} unsupported (16-bit PGM not handled)")
    if maxval < 1:
        raise PgmError(f"invalid maxval {maxval}")
    count = width * height
    if magic == b"P5":
        payload = data[offset : offset + count]
        if len(payload) < count:
            raise PgmError("truncated P5 pixel payload")
        pixels = np.frombuffer(payload, dtype=np.uint8).astype(np.float64)
    else:
        values = data[offset:].split()
        if len(values) < count:
            raise PgmError("truncated P2 pixel payload")
        pixels = np.array([int(v) for v in values[:count]], dtype=np.float64)
    if pixels.min() < 0 or pixels.max() > maxval:
        raise PgmError("PGM sample outside [0, maxval]")
    if maxval < 255:
        pixels = pixels * 255.0 / maxval
    return pixels.reshape(height, width)


def save_pgm(image, path) -> None:
    """Write a binary P5 PGM with maxval 255.

    Samples are clamped to [0, 255] then rounded half-away-from-zero, so
    loading the file back reproduces the clamped-rounded image exactly.
    """
    img = as_image(image)
    # one image-sized temporary; np.round is half-to-even, the contract half-away-from-zero
    rounded = np.clip(img, 0.0, 255.0)
    rounded += 0.5
    np.floor(rounded, out=rounded)
    height, width = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        fh.write(rounded.astype(np.uint8).tobytes())

