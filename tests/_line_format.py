"""Reference formatter: one line at a time, one format() call per address.

The library renders a block of words into one string; this per-line
formatter is the independent computation the tests compare it against.
It shares no code with `addrseq`.
"""

CSV_HEADER = "n,address_dec,address_bin,hamming_to_prev"


def format_lines(words, m, fmt="bin"):
    """The lines of `words` in `fmt`, one address per line."""
    if fmt == "bin":
        for w in words:
            yield format(w, f"0{m}b")
    elif fmt == "dec":
        for w in words:
            yield str(w)
    elif fmt == "hex":
        digits = (m + 3) // 4
        for w in words:
            yield format(w, f"0{digits}x")
    elif fmt == "csv":
        yield CSV_HEADER
        prev = None
        for n, w in enumerate(words):
            dist = "" if prev is None else str(bin(prev ^ w).count("1"))
            yield f"{n},{w},{format(w, f'0{m}b')},{dist}"
            prev = w
    else:
        raise ValueError(f"unknown format {fmt!r}")
