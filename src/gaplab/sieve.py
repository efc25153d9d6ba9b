"""Segmented prime sieve: the data substrate for every other module.

Produces the primes in increasing order with correct 1-based global
indices (p_1 = 2). Segments are odd-only boolean bitmaps, sieved one
after another by one kernel:

- the kernel starts at any value lo: it sieves the odd numbers of
  [max(lo, 19), limit] and nothing below them;
- a wheel pattern over odd indices, built once per call, already has the
  multiples of 3, 5, 7, 11, 13 and 17 cleared (its period is
  3*5*7*11*13*17 = 255,255 odd indices); each segment starts as a copy of
  its window of the pattern, and no segment holds a wheel prime;
- every base prime p > 17 up to sqrt(limit) keeps the offset of its next
  odd multiple (the first one at or above max(p^2, lo)), relative to the
  current segment, in one int64 array; a segment clears with one strided
  write per base prime whose p^2 lies below its end, and the offsets are
  carried to the next segment without recomputing a start;
- the kernel sieves its own base primes: _segments drains itself up to
  sqrt(limit) on its own thread (_kernel_primes starts no executor), and
  the recursion ends below 19, where the kernel asks for no base primes.

The primes below 19 (2 and the six wheel primes) come from one table,
_HEAD, never from a bitmap: sieve_primes yields the ones in its window
as its first block and then turns each bitmap into a block of primes.
A stream that starts above 2 takes the global index of its first prime
from pi(lo - 1), and pi comes from the Lucy recursion, a Legendre-sum
form of Meissel-Lehmer that sieves only up to sqrt(x), with the same
kernel: prime_count answers from it alone and starts no thread.
Every segment covers DEFAULT_SEGMENT_SIZE odd numbers, which no caller
sets: the prime stream and every output are the same at any segment
size, and the tests place segment edges by patching this constant.
Carried offsets make the kernel sequential, so segments are never sieved
side by side. Instead each stream runs the kernel on a one-worker
concurrent.futures executor, one segment ahead of its consumer: while
the worker clears the next bitmap, the consumer extracts the primes of
the current one (np.flatnonzero, which releases the interpreter lock)
and runs its own stage. numpy releases the lock only for a write of more
than 500 elements, so the worker runs beside the consumer's Python code
for its small base primes and holds the lock for p above about 2,100,
whose strided writes touch at most 500 elements of a 2^20 mask. Two
threads, each clearing its own 2^20 mask, ran the 19 <= p < 64 band
1.7-1.8x as fast as one, 64 <= p < 1024 1.2-1.4x, and p >= 4096 0.95x
(2-core VM). The blocks are the same as from an inline drain, so no
function here needs a thread count.

See Bays & Hudson, BIT 17 (1977), and Oliveira e Silva, Herzog & Pardi,
Math. Comp. 83 (2014), for the segmented sieve with a pre-sieve; and
Lagarias, Miller & Odlyzko, Math. Comp. 44 (1985), for pi(x) by
Legendre sums.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import BinaryIO, Iterator

import numpy as np

from .errors import CapacityError

__all__ = [
    "MAX_LIMIT",
    "DEFAULT_SEGMENT_SIZE",
    "PrimeBlock",
    "sieve_primes",
    "primes_upto",
    "prime_count",
    "nth_prime",
    "write_dump_block",
]

# Prime values are stored as int64; the odd-only segment arithmetic needs
# 2*limit to stay inside the width, hence the 2^62 cap.
MAX_LIMIT = 1 << 62

# Number of odd integers covered per segment (a 1 MiB boolean bitmap,
# spanning ~2 million integers). Strided numpy clears amortize per-call
# overhead at this size.
DEFAULT_SEGMENT_SIZE = 1 << 20

# Odd primes cleared by the wheel pattern instead of by strided writes
_WHEEL_PRIMES = (3, 5, 7, 11, 13, 17)
_WHEEL_PERIOD = math.prod(_WHEEL_PRIMES)

# The kernel's first odd number, the first prime above the wheel primes;
# _HEAD holds every prime below it, so no bitmap holds one
_FIRST = 19
_HEAD = np.array([2, *_WHEEL_PRIMES], dtype=np.int64)


@dataclass(frozen=True)
class PrimeBlock:
    """A contiguous run of primes with global 1-based index offsets.

    ``primes[i]`` is the (start_index + i)-th prime. Each block owns its
    array, which is marked read-only before emission, so a consumer may
    keep it after asking for the next block.
    """

    start_index: int
    primes: np.ndarray

    def __len__(self) -> int:
        return len(self.primes)


def _wheel_pattern(length: int) -> np.ndarray:
    """pattern[k] is True iff 2k + 1 has no factor among _WHEEL_PRIMES."""
    pattern = np.ones(length, dtype=bool)
    for q in _WHEEL_PRIMES:
        pattern[(q - 1) // 2 :: q] = False
    return pattern


def _validate_limit(limit: int, name: str = "limit") -> int:
    if not isinstance(limit, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {limit!r}")
    limit = int(limit)
    if limit > MAX_LIMIT:
        raise CapacityError(
            f"limit {limit} exceeds the supported maximum {MAX_LIMIT} (int64 segment arithmetic)"
        )
    return limit


def _segments(lo: int, limit: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (low, mask) for the odd numbers in [max(lo, _FIRST), limit], one segment at a time.

    mask[i] is True iff low + 2i is prime. The segments alternate between
    two buffers, so mask k is overwritten by segment k + 2: a consumer
    reads it before asking for mask k + 2, and may have mask k + 1
    sieved while it still reads mask k. _sieve_ahead does both: its
    executor sieves mask k + 1 during the read, and segment k + 2 is
    submitted only after it.
    """
    first = max(lo | 1, _FIRST)
    if first > limit:
        return
    n_odds = (limit - first) // 2 + 1

    width = min(DEFAULT_SEGMENT_SIZE, n_odds)
    # a segment reads the pattern from its odd index mod the period, and
    # never past the unwrapped end w0 + n_odds of the whole range
    w0 = (first - 1) // 2 % _WHEEL_PERIOD
    pattern = _wheel_pattern(min(_WHEEL_PERIOD + width, w0 + n_odds))
    buf, spare = np.empty(width, dtype=bool), np.empty(width, dtype=bool)

    p = _kernel_primes(math.isqrt(limit))
    p2 = p * p
    # odd-index offset of each base prime's next odd multiple, relative to
    # the current segment's low: the first one at or above max(p^2, first)
    # (an even multiple steps on by p)
    m = np.maximum(p2, (first + p - 1) // p * p)
    off = (np.where(m % 2, m, m + p) - first) // 2

    span = 2 * DEFAULT_SEGMENT_SIZE
    for low in range(first, limit + 1, span):
        high = min(low + span, limit + 1)
        n = (high - low + 1) // 2
        w = ((low - 1) // 2) % _WHEEL_PERIOD
        mask = buf[:n]
        mask[:] = pattern[w : w + n]
        active = int(np.searchsorted(p2, high))
        for q, o in zip(p[:active].tolist(), off[:active].tolist()):
            mask[o::q] = False
        yield low, mask
        buf, spare = spare, buf
        off -= n
        neg = off < 0
        off[neg] %= p[neg]


def _sieve_ahead(lo: int, limit: int) -> Iterator[np.ndarray]:
    """Yield the primes of each segment of _segments(lo, limit), each in a new int64 array.

    The masks are sieved on a one-worker executor, one segment ahead: the
    worker sieves segment k + 1 while this thread extracts mask k. Two
    segments are queued at a time, and segment k + 2, which reuses mask
    k's buffer, is queued only after mask k is extracted into a new
    array. A fault in the worker is raised here by result(), after the
    segments sieved before it. However the stream ends (exhausted, closed
    early, or left by a consumer that raised), closing it cancels what is
    queued and joins the worker.
    """
    # imported here, not at the top: concurrent.futures pulls in logging
    # (about 5 ms and 0.7 MB), and gaplab bounds never starts a stream
    from concurrent.futures import ThreadPoolExecutor

    segments = _segments(lo, limit)
    pool = ThreadPoolExecutor(1, thread_name_prefix="gaplab-sieve")
    try:
        ahead = deque(pool.submit(next, segments, None) for _ in range(2))
        while (item := ahead.popleft().result()) is not None:
            low, mask = item
            primes = np.flatnonzero(mask)
            ahead.append(pool.submit(next, segments, None))
            primes *= 2
            primes += low
            yield primes
    finally:
        pool.shutdown(cancel_futures=True)


def _kernel_primes(n: int) -> np.ndarray:
    """The primes _FIRST <= p <= n as one int64 array, drained from _segments on this thread."""
    blocks = [np.flatnonzero(mask) * 2 + low for low, mask in _segments(_FIRST, n)]
    return np.concatenate(blocks) if blocks else np.zeros(0, dtype=np.int64)


def _prime_pi(x: int) -> int:
    """pi(x) by the Lucy recursion, a Legendre-sum form of Meissel-Lehmer.

    S(v) starts as the count of 2..v and, after the round for prime p,
    counts the integers in 2..v that are prime or have no prime factor
    <= p; the round subtracts S(v // p) - pi(p - 1) from every S(v) with
    v >= p^2. Only the values v = x // i occur, and each is either at
    most sqrt(x) or x // i with i at most sqrt(x): two int64 arrays of
    length sqrt(x), one vectorized update per prime <= sqrt(x), and
    O(x^(3/4)) work in all.
    """
    if x < 2:
        return 0
    r = math.isqrt(x)
    i = np.arange(r + 1, dtype=np.int64)
    small = i - 1  # small[v] = S(v), v <= r
    large = x // np.maximum(i, 1) - 1  # large[i] = S(x // i), 1 <= i <= r
    for k, p in enumerate(chain(_HEAD[_HEAD <= r].tolist(), _kernel_primes(r).tolist())):
        # k = pi(p - 1); every right side copies the values from before this round
        p2 = p * p
        top = min(r, x // p2)
        mid = min(top, r // p)
        large[1 : mid + 1] -= large[p : mid * p + 1 : p] - k
        large[mid + 1 : top + 1] -= small[x // (i[mid + 1 : top + 1] * p)] - k
        if p2 <= r:
            small[p2:] -= small[i[p2:] // p] - k
    return int(large[1])


def sieve_primes(limit: int, *, start: int = 2, threads: int = 1) -> Iterator[PrimeBlock]:
    """Stream every prime p with start <= p <= limit exactly once, in blocks, in index order.

    The first block's start_index is pi(start - 1) + 1, so indices are
    global whatever the start. A start at or below 2 streams every prime
    and needs no pi; a start above limit streams nothing. The primes of
    _HEAD in the window, if any, form the first block, and each non-empty
    segment of the kernel, which starts at _FIRST, forms one block after it.

    Args:
      limit: inclusive upper bound, >= 2.
      start: inclusive lower bound of the window (keyword-only).
      threads: accepted and ignored (must be >= 1); every stream sieves
        on one worker thread, one segment ahead of the caller, whatever
        its value. Kept only for perfbench/traced.py --speedup, and
        removed together with its sieve.speedup_t2 metric.

    Raises:
      ValueError: limit < 2 or threads < 1.
      CapacityError: limit exceeds MAX_LIMIT.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    limit = _validate_limit(limit)
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    start = _validate_limit(start, "start")
    if start > limit:
        return

    count = _prime_pi(start - 1)
    head = _HEAD[(start <= _HEAD) & (_HEAD <= limit)]
    # a window below the kernel's first odd number starts no worker
    tail = _sieve_ahead(start, limit) if max(start | 1, _FIRST) <= limit else ()
    for primes in chain([head], tail):
        if len(primes):
            primes.flags.writeable = False
            yield PrimeBlock(start_index=count + 1, primes=primes)
            count += len(primes)


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit as one int64 array."""
    return np.concatenate([b.primes for b in sieve_primes(limit)])


def prime_count(limit: int) -> int:
    """pi(limit): the number of primes <= limit. Zero for limit < 2.

    Computed by the Lucy recursion; nothing is sieved beyond sqrt(limit).
    """
    limit = _validate_limit(limit)
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    return _prime_pi(limit)


def _nth_prime_floor(n: int) -> int:
    """Dusart's lower bound for p_n, n >= 3 (arXiv:1002.0442, 2010), and 2 below.

    p_n >= n (ln n + ln ln n - 1 + (ln ln n - 2.1)/ln n), so a window
    started here needs no second pass. The factor 1 - 10^-12 covers the
    float error (about 10 ulp of n ln n), and int() rounds down; at the
    published p_(10^k), k = 6..17, p_n lies 4.2e-4 to 4.2e-5 of p_n above.
    """
    if n < 3:
        return 2
    x = float(n)
    ln, lnln = math.log(x), math.log(math.log(x))
    return max(2, int(x * (ln + lnln - 1 + (lnln - 2.1) / ln) * (1 - 1e-12)))


def _nth_prime_bound(n: int) -> int:
    """Upper bound for p_n: n (ln n + ln ln n) for n >= 6 (Rosser).

    So nth_prime's one pass always reaches p_n; at n = 10^6 ... 10^17 the
    bound lies 2-6 % above it.
    """
    if n < 6:
        return 12
    x = float(n)
    return int(x * (math.log(x) + math.log(math.log(x)))) + 1


def nth_prime(n: int) -> int:
    """The n-th prime, 1-based: nth_prime(1) = 2.

    Sieves once, only the window between the proven bounds
    _nth_prime_floor(n) and _nth_prime_bound(n), indexed by pi of its start.

    Raises:
      ValueError: n < 1.
      CapacityError: p_n would exceed MAX_LIMIT.
    """
    if n < 1:
        raise ValueError(f"prime index must be >= 1, got {n}")
    bound = _nth_prime_bound(n)
    if bound > MAX_LIMIT:
        raise CapacityError(f"p_{n} exceeds the supported maximum value {MAX_LIMIT}")
    for block in sieve_primes(bound, start=_nth_prime_floor(n)):
        if block.start_index + len(block) > n:
            return int(block.primes[n - block.start_index])
    raise AssertionError(f"no p_{n} below its bound {bound}")


def write_dump_block(fh: BinaryIO, block: PrimeBlock) -> None:
    """Append one block to an open prime dump.

    A dump is a raw concatenation of little-endian 64-bit integers ('<i8'),
    in index order, suitable for numpy.fromfile.
    """
    block.primes.astype("<i8").tofile(fh)
