"""Number text shared by every file the program writes."""

import numpy as np

WRITE_CHUNK_VALUES = 120_000  # values formatted per write; bounds the temporary text


def fmt(x):
    """A number as `%.12g`; a string passes through."""
    return x if isinstance(x, str) else f"{x:.12g}"


def write_rows(fileobj, row_template, table):
    """Format a 2-D table one row per %-template, a few row blocks at a time.

    `%.12g` in a template prints exactly what `fmt` does; the chunks keep the
    Python objects and the text of one write small.
    """
    step = max(1, WRITE_CHUNK_VALUES // table.shape[1])
    for start in range(0, len(table), step):
        chunk = table[start:start + step]
        fileobj.write((row_template * len(chunk)) % tuple(chunk.ravel().tolist()))


def format_samples(values):
    """The `fmt` text of every value of a float array, in C order, as a list.

    +0.0 needs no formatting and is the literal "0"; every other value, -0.0,
    NaN and the infinities included, goes through one `%.12g` template.
    """
    flat = np.ascontiguousarray(values, dtype=np.float64).ravel()
    live = flat.view(np.uint64) != 0
    n = int(np.count_nonzero(live))
    out = np.full(flat.size, "0", dtype=object)
    out[live] = ("%.12g\0" * n % tuple(flat[live].tolist())).split("\0")[:-1]
    return out.tolist()
