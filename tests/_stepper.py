"""Reference recursive generator: the paper's hardware model, one row XOR per step.

The library evaluates every engine in closed form; this stepper is the
independent computation the tests compare it against.  It shares no
code with `addrseq`: the counter, the switching index and the running
address are all kept here.
"""


def step_words(rows, m, a0=0, b0=0, count=None, down=False):
    """Addresses of the up-run (or its exact reversal) from `a0` and counter `b0`.

    Each up step increments the counter and XORs in the row picked by the
    switching index of the new state (the wrap into 0 picks row m).  The
    down-run starts at the up-run's last address, which is `a0` with the
    wrap step into `b0` undone, and undoes one up step per address.
    """
    full = 1 << m
    count = full if count is None else count

    def row(state):  # row switched by the counter step into `state`
        state %= full
        return rows[(state & -state).bit_length() - 1 if state else m - 1]

    acc, c = (a0 ^ row(b0), b0 - 1) if down else (a0, b0)
    out = [acc] if count else []
    for _ in range(count - 1):
        if down:
            acc ^= row(c)
            c -= 1
        else:
            c += 1
            acc ^= row(c)
        out.append(acc)
    return out


def gray_address(rows, position):
    """Address `position` of the zero-initialized up-run: rows picked by gray(position)."""
    acc, sel, i = 0, position ^ (position >> 1), 0
    while sel:
        if sel & 1:
            acc ^= rows[i]
        sel >>= 1
        i += 1
    return acc
