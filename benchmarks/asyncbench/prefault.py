"""Touch fresh memory, one byte per page, then exit and release it.

Run as a short-lived process before each set-up sample. On the builder's
microVM the first touch of a guest page costs ~10 ms/MB of system time
(the host backs guest memory lazily) and the kernel hands freed pages
out again first; without this step a fresh process's first 64 MB
allocation takes anywhere between 0.14 s and 3.6 s — far more than any
effect the benchmark is meant to resolve, and nothing a yardstick can
calibrate. It is its own process because ``ru_maxrss`` survives
fork+exec: touched in the measuring process, the memory would become
that process's ``peak_rss_mb``.
"""

import sys

if __name__ == "__main__":
    size = int(sys.argv[1]) << 20
    buf = bytearray(size)
    buf[::4096] = b"\x01" * len(range(0, size, 4096))
