"""Near-miss address lines: a hypothesis strategy shared by the parser and CLI tests.

Lines are mostly of one shape (bin, dec, hex, csv or an ambiguous one),
with junk, padding, blank lines and CR line ends planted in them, so they
sit on both sides of every rule the parser applies.
"""

from hypothesis import strategies as st

_JUNK = ["+", "-", "_", " ", "\t", "x", "0x", ",", "g", "\xa0", "\u0663", "\udcff", "\u2028"]
_PAD = st.text(" \t\x0b\x0c", max_size=2)


@st.composite
def near_miss_lines(draw, m):
    """Up to 12 address lines of width `m`, with planted junk, plus blank lines."""
    top, digits = 1 << m, (m + 3) // 4
    word = st.one_of(st.integers(0, top - 1), st.sampled_from([0, top - 1, top]))

    def csv_row(w, columns):
        parts = ["0", str(w), format(w, f"0{m}b"), "1"]
        return ",".join(parts[:columns] + ["1"] * (columns - 4))

    width = draw(st.integers(1, m + 2))
    shape = draw(st.sampled_from(["bin", "dec", "hex", "0x", "csv", "digits", "0/1", "width"]))
    lines = draw(st.lists({
        "bin": word.map(lambda w: format(w, f"0{m}b")),
        "dec": word.map(str),
        "hex": word.map(lambda w: format(w, f"0{digits}x")),
        "0x": word.map(lambda w: f"0x{w:X}"),
        "csv": st.builds(csv_row, word, st.sampled_from([4] * 8 + [3, 5])),
        "digits": st.text("0123456789", min_size=digits, max_size=digits),  # dec and hex at once
        "0/1": st.text("01", min_size=1, max_size=m + 2),  # mixed widths
        "width": st.text("01", min_size=width, max_size=width),  # bin of another width
    }[shape], max_size=12))
    if shape == "csv" and draw(st.booleans()):
        lines.insert(0, "n,address_dec,address_bin,hamming_to_prev")
    junk = draw(st.sampled_from([0, 0, 1, 4]))  # planted junk per 16 lines
    out = []
    for ln in lines:
        if draw(st.integers(0, 15)) < junk:
            at = draw(st.integers(0, len(ln)))
            ln = ln[:at] + draw(st.sampled_from(_JUNK)) + ln[at:]
        out.append(draw(_PAD) + ln + draw(_PAD) + draw(st.sampled_from(["", "", "\r"])))
        if draw(st.integers(0, 5)) == 0:
            out.append(draw(_PAD))
    return out
