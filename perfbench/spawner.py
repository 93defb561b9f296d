"""Runs benchmark ops as child processes on behalf of run.py.

A child's peak RSS as the kernel reports it includes the peak of the
process that spawned it, so ops are spawned from this small process
(started with -S, and without hashlib, which loads OpenSSL) and not from
the benchmark, which holds the reference data.  Protocol: one JSON
request per stdin line, one JSON reply per stdout line.

request: {"cmds": [argv, ...], "stderr": path, "timeout": s, "keep": bytes}
    cmds run as a pipeline, each feeding the next; the last one's
    stdout is drained here
reply:   {"wall": s, "first": s, "rss_mb": MB, "codes": [...], "digest":
          [lines, bytes, crc32], "text": the first `keep` bytes, "timed_out": bool}
"""

import json
import os
import select
import subprocess
import sys
import time
import zlib

CHUNK = 1 << 16


def run(cmds, stderr_path, timeout, keep):
    # one reused read buffer and no helper thread: this process's own peak RSS is
    # the floor of every child's reported peak, so it must not grow op by op
    procs = []
    buf = bytearray(CHUNK)
    head = bytearray()
    crc = size = lines = 0
    timed_out = False
    with open(stderr_path, "wb") as stderr:
        t0 = time.perf_counter()
        stdin = None
        for argv in cmds:
            proc = subprocess.Popen(argv, stdin=stdin, stdout=subprocess.PIPE, stderr=stderr)
            if stdin is not None:
                stdin.close()
            stdin = proc.stdout
            procs.append(proc)
        fd = stdin.fileno()
        first = None
        deadline = t0 + timeout
        while True:
            if not select.select([fd], [], [], max(0.0, deadline - time.perf_counter()))[0]:
                timed_out = True
                for proc in procs:
                    proc.kill()
                break
            n = os.readv(fd, [buf])
            if first is None:
                first = time.perf_counter()
            if not n:
                break
            view = memoryview(buf)[:n]
            crc = zlib.crc32(view, crc)
            size += n
            lines += buf.count(b"\n", 0, n)
            if len(head) < keep:
                head += view[: keep - len(head)]
            view.release()
        rss = 0
        for proc in procs:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            rss = max(rss, usage.ru_maxrss / 1024)
        wall = time.perf_counter() - t0
        stdin.close()
    return {
        "wall": wall,
        "first": (first or t0) - t0,
        "rss_mb": rss,
        "codes": [p.returncode for p in procs],
        "digest": [lines, size, crc],
        "text": head.decode("latin-1"),
        "timed_out": timed_out,
    }


def main():
    for line in sys.stdin:
        req = json.loads(line)
        reply = run(req["cmds"], req["stderr"], req["timeout"], req["keep"])
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
