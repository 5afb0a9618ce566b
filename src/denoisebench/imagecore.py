"""Image representation and PGM I/O.

An image is a 2-D float64 numpy array of shape (height, width).  Samples are
real-valued and may leave [0, 255] while processing; quantization to 8-bit
happens only in :func:`save_pgm`.
"""

import math
import re

import numpy as np

__all__ = ["as_image", "load_pgm", "save_pgm"]


class PgmError(ValueError):
    """Malformed or unsupported PGM data."""


def as_image(data) -> np.ndarray:
    """Coerce array-like pixel data to a valid 2-D C-contiguous float64 image."""
    return _checked(np.asarray(data, dtype=np.float64, order="C"))


def _checked(img: np.ndarray) -> np.ndarray:
    """`img`, once it is known to be 2-D, non-empty and finite."""
    if img.ndim != 2 or img.shape[0] < 1 or img.shape[1] < 1:
        raise ValueError(f"image must be 2-D and non-empty, got shape {img.shape}")
    # a NaN sets the minimum, an infinity one extreme: no image-sized temporary
    if not (math.isfinite(img.min()) and math.isfinite(img.max())):
        raise ValueError("image contains non-finite samples")
    return img


def _in_place(x, out, what: str, home=None) -> bool:
    """Whether the kernel input `x` lives in its output `out`.

    False when the two share no memory; True when `x` is `home`, the view of
    `out` where the kernel expects it (by default `out` itself).  Any other
    overlap raises ValueError: the kernel would read values of `x` that it
    has already overwritten.
    """
    if not np.shares_memory(x, out):
        return False
    home = out if home is None else home
    if (x.ctypes.data, x.strides) != (home.ctypes.data, home.strides):
        place = f"be the {what} itself" if home is out else f"hold the {what} in its own rows"
        raise ValueError(f"out must {place} or share no memory with it")
    return True


def _padded_lanes(img, r0: int, r1: int, half: int, buf, wrap: bool = False,
                  edges=None) -> np.ndarray:
    """Rows ``r0 - half : r1 + half`` of `img`, padded by `half` on each side,
    written flat into the front of the float64 buffer `buf`; returns that view.

    This is the one lane layout of the window sums (bilateral filter,
    NeighShrink, texture box blur): with ``pw = w + 2 * half``, output row i
    is lanes ``i * pw : i * pw + w``, and window offset (dy, dx) is the same
    run ``dy * pw + dx`` later, so every operand is one contiguous run, which
    numpy streams several times faster than a strided 2-D view; the
    ``2 * half`` lanes between two output rows are summed and then dropped.
    The border is reflect-101 (``np.pad``'s ``reflect``, repeated on a side
    shorter than ``half + 1``) or, with `wrap`, periodic.  As in ``np.pad``,
    an empty side raises ValueError when ``half > 0``.

    With `edges` (reflect-101 only), the rows outside ``r0:r1`` come not
    from `img` but from ``edges[b]``, a copy of rows ``b - half : b + half``
    (clipped to the image) made at the strip boundaries b = r0 and b = r1
    before `img` changed: a filter that writes its output over `img` passes
    them.  Every reflected row repeats one of the rows already in the buffer.
    """
    h, w = img.shape
    if half and not (h and w):
        raise ValueError(f"cannot pad an empty side of an image of shape {img.shape}")
    pw = w + 2 * half
    flat = buf[: (r1 - r0 + 2 * half) * pw]
    rows = flat.reshape(r1 - r0 + 2 * half, pw)
    inner = rows[:, half : half + w]
    first, top, bottom = r0 - half, max(r0 - half, 0), min(r1 + half, h)
    if edges is None:
        inner[top - first : bottom - first] = img[top:bottom]
    else:
        inner[r0 - first : r1 - first] = img[r0:r1]
        if top < r0:
            inner[top - first : r0 - first] = edges[r0][: r0 - top]
        if r1 < bottom:
            inner[r1 - first : bottom - first] = edges[r1][min(half, r1) :]
    # the rows beyond the image's top and bottom, then every row's border columns
    beyond = np.r_[first:top, bottom : r1 + half]
    source = _fold(beyond, h, wrap)
    inner[beyond - first] = img[source] if wrap else inner[source - first]
    cols = np.r_[-half:0, w : w + half]
    rows[:, cols + half] = rows[:, _fold(cols, w, wrap) + half]
    return flat


def _fold(j, n: int, wrap: bool):
    """The index in ``0..n-1`` that each index `j` beyond a side of n samples
    copies: periodic, or reflect-101, which repeats every ``2 * (n - 1)``."""
    return j % n if wrap else n - 1 - abs(j % max(2 * n - 2, 1) - n + 1)


# samples save_pgm rounds at a time: 512 KiB of float64
_SAVE_BLOCK = 1 << 16

# magic, then width, height and maxval, each after whitespace or '#' comments
# running to the end of their line; one whitespace byte ends the header
_HEADER = re.compile(rb"P[25]" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")


def load_pgm(path) -> np.ndarray:
    """Load a binary (P5) or ASCII (P2) PGM file, maxval 1 to 65535.

    P5 samples are one byte at maxval <= 255 and two big-endian bytes above
    it.  Samples are rescaled from [0, maxval] to [0, 255], the range the
    metrics score against; at maxval 255 they load unchanged.  Every
    `PgmError` starts with `path`.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return _decode_pgm(data)
    except PgmError as exc:
        raise PgmError(f"{path}: {exc}") from None


def _decode_pgm(data: bytes) -> np.ndarray:
    magic = data[:2]
    if magic not in (b"P5", b"P2"):
        raise PgmError(f"unsupported PNM format {magic!r}; only P5/P2 grayscale supported")
    header = _HEADER.match(data)
    if header is None:
        raise PgmError("malformed PGM header")
    width, height, maxval = map(int, header.groups())
    if width < 1 or height < 1:
        raise PgmError(f"invalid PGM dimensions {width}x{height}")
    if not 1 <= maxval <= 65535:
        raise PgmError(f"invalid maxval {maxval}")
    count, offset = width * height, header.end()
    if magic == b"P5":
        dtype = np.dtype(">u2" if maxval > 255 else "u1")
        payload = data[offset : offset + count * dtype.itemsize]
        if len(payload) < count * dtype.itemsize:
            raise PgmError("truncated P5 pixel payload")
        pixels = np.frombuffer(payload, dtype).astype(np.float64)
    else:
        values = data[offset:].split()
        if len(values) < count:
            raise PgmError("truncated P2 pixel payload")
        samples = values[:count]
        # netpbm samples are plain decimal digits: no sign, point or '_'
        if not all(map(bytes.isdigit, samples)):
            raise PgmError("non-integer P2 sample")
        pixels = np.array(samples, dtype=np.float64)
    if pixels.min() < 0 or pixels.max() > maxval:
        raise PgmError("PGM sample outside [0, maxval]")
    if maxval != 255:
        pixels = pixels * 255.0 / maxval
    return pixels.reshape(height, width)


def save_pgm(image, path) -> None:
    """Write a binary P5 PGM with maxval 255.

    Samples are clamped to [0, 255] then rounded half-away-from-zero, so
    loading the file back reproduces the clamped-rounded image exactly.
    They are converted one block of about ``_SAVE_BLOCK`` samples at a time,
    so a save holds no image-sized temporary, nor a C-ordered copy of a
    strided image.
    """
    img = _checked(np.asarray(image, dtype=np.float64))
    height, width = img.shape
    rows = max(1, _SAVE_BLOCK // width)
    block = np.empty((min(rows, height), width))
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n255\n".encode("ascii"))
        for r0 in range(0, height, rows):
            # np.round is half-to-even, the contract half-away-from-zero
            rounded = np.clip(img[r0 : r0 + rows], 0.0, 255.0, out=block[: min(rows, height - r0)])
            rounded += 0.5
            np.floor(rounded, out=rounded)
            fh.write(rounded.astype(np.uint8).tobytes())
