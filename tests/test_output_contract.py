"""The output contract: verify, analyze and permute print the same bytes, input shape by input shape.

The corpus is ``gen -m M --family random:1`` at M = 1..12, in four engine
variants and a run of three addresses, each in four formats, and five
copies of each rendering of the up-run, the down-run and the short run:
CRLF line ends, no final newline, upper case, padded lines and blank
lines.  Each command's stdout, stderr and exit code over the whole corpus
fold into one sha256.  The hashes were taken before the reader was
rewritten as one body on bytes, so a change to any of them is a change to
what the CLI prints, and is logged as one.
"""

import hashlib

from test_cli import run_main

_VARIANTS = {
    "up": lambda M: [],
    "down": lambda M: ["--down", "--a0", str(0x5A3 % (1 << M)), "--b0", str(0x1C7 % (1 << M))],
    "shift": lambda M: ["--shift", str(1234 % (1 << M))],
    "direct": lambda M: ["--engine", "direct"],
    # a short run, incomplete, whose few lines can read as dec and as hex
    "short": lambda M: ["--a0", str(16 % (1 << M)), "--count", str(min(3, 1 << M))],
}

_COPIES = {
    "as written": lambda text: text,
    "crlf": lambda text: text.replace("\n", "\r\n"),
    "no final newline": lambda text: text[:-1],
    "upper case": str.upper,
    "padded": lambda text: "".join(f" {ln}\t\n" for ln in text.splitlines()),
    "blank lines": lambda text: "\n" + text.replace("\n", "\n \n", 1) + "\n\t\n",
}

# sha256 of every run's exit code, stdout and stderr, in corpus order, per command
PINNED = {
    "verify": "a3b43ced4cc20013f7aca9c61ab2df6e37eb9d5aaf2354377f4f67324ed2917b",
    "analyze": "eb041aa0cc4ec7894b5e6f9e581f05a21d280de8e34c1d637d5886ec99c09cc9",
    "permute": "b158352df5a55a535cbce61217aa6c8051cf677500f2e41dc16456f98c3283c7",
}


def _corpus():
    for M in range(1, 13):
        for variant, flags in _VARIANTS.items():
            for fmt in ("bin", "dec", "hex", "csv"):
                code, text, err = run_main(["gen", "-m", str(M), "--family", "random:1", *flags(M),
                                            "--format", fmt])
                assert (code, err) == (0, "")
                for copy, make in _COPIES.items():
                    if copy == "as written" or variant in ("up", "down", "short"):
                        yield M, fmt, make(text)


def test_every_command_prints_the_pinned_output_over_the_corpus():
    digests = {command: hashlib.sha256() for command in PINNED}
    for M, fmt, text in _corpus():
        perm = ",".join(map(str, range(M, 0, -1)))
        for command, argv in (("verify", ["verify", "-m", str(M)]),
                              ("analyze", ["analyze", "-m", str(M), "--format", fmt, "--max-r", "2"]),
                              ("permute", ["permute", "-m", str(M), "--perm", perm, "--format", fmt])):
            code, out, err = run_main(argv, text)
            digests[command].update(f"{code}\0{out}\0{err}\0".encode("utf-8", "surrogateescape"))
    assert {command: d.hexdigest() for command, d in digests.items()} == PINNED
