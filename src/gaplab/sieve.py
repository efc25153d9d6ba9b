"""Segmented prime sieve: the data substrate for every other module.

Produces the primes in increasing order with correct 1-based global
indices (p_1 = 2). Segments are odd-only boolean bitmaps, sieved one
after another by one kernel:

- a wheel pattern over odd indices, built once per call, already has the
  multiples of 3, 5, 7, 11, 13 and 17 cleared (its period is
  3*5*7*11*13*17 = 255,255 odd indices); each segment starts as a copy of
  its window of the pattern, and the first segment restores those six
  primes;
- every base prime p > 17 up to sqrt(limit) keeps the offset of its next
  odd multiple (p^2 first), relative to the current segment, in one int64
  array; a segment clears with one strided write per base prime whose
  p^2 lies below its end, and the offsets are carried to the next
  segment without recomputing a start.

sieve_primes turns each bitmap into a block of primes; prime_count and
the `gaplab sieve` summary only count the bitmaps. Every segment covers
DEFAULT_SEGMENT_SIZE odd numbers, which no caller sets: the prime stream
and every output are the same at any segment size, and the tests place
segment edges by patching this constant. Carried offsets make the kernel
sequential, so no function here needs a thread count.

See Bays & Hudson, BIT 17 (1977), and Oliveira e Silva, Herzog & Pardi,
Math. Comp. 83 (2014), for the segmented sieve with a pre-sieve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    "read_prime_dump",
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

_TWO = np.array([2], dtype=np.int64)

# odd numbers at the end of a segment searched first for its largest prime
_TAIL = 256


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


def _small_sieve(limit: int) -> np.ndarray:
    """Dense sieve for base primes up to sqrt(limit); int64 values."""
    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def _wheel_pattern(length: int) -> np.ndarray:
    """pattern[k] is True iff 2k + 1 has no factor among _WHEEL_PRIMES."""
    pattern = np.ones(length, dtype=bool)
    for q in _WHEEL_PRIMES:
        pattern[(q - 1) // 2 :: q] = False
    return pattern


def _validate_limit(limit: int) -> int:
    if not isinstance(limit, (int, np.integer)):
        raise ValueError(f"limit must be an integer, got {limit!r}")
    limit = int(limit)
    if limit > MAX_LIMIT:
        raise CapacityError(
            f"limit {limit} exceeds the supported maximum {MAX_LIMIT} (int64 segment arithmetic)"
        )
    return limit


def _segments(limit: int) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (low, mask) for the odd numbers in [3, limit], one segment at a time.

    mask[i] is True iff low + 2i is prime. mask is a view of one buffer
    that the next segment overwrites, so a consumer reads it before
    asking for the next one.
    """
    n_odds = (limit - 1) // 2
    if n_odds < 1:
        return

    width = min(DEFAULT_SEGMENT_SIZE, n_odds)
    pattern = _wheel_pattern(_WHEEL_PERIOD + width)
    buf = np.empty(width, dtype=bool)

    base = _small_sieve(math.isqrt(limit))
    p = base[base > _WHEEL_PRIMES[-1]]
    p2 = p * p
    # odd-index offset of each base prime's next odd multiple (p^2 first),
    # relative to the current segment's low
    off = (p2 - 3) // 2

    span = 2 * DEFAULT_SEGMENT_SIZE
    for low in range(3, limit + 1, span):
        high = min(low + span, limit + 1)
        n = (high - low + 1) // 2
        w = ((low - 1) // 2) % _WHEEL_PERIOD
        mask = buf[:n]
        mask[:] = pattern[w : w + n]
        active = int(np.searchsorted(p2, high))
        for q, o in zip(p[:active].tolist(), off[:active].tolist()):
            mask[o::q] = False
        if low == 3:
            for q in _WHEEL_PRIMES:
                if q < high:
                    mask[(q - 3) // 2] = True
        yield low, mask
        off -= n
        neg = off < 0
        off[neg] %= p[neg]


def sieve_primes(limit: int, *, threads: int = 1) -> Iterator[PrimeBlock]:
    """Stream every prime <= limit exactly once, in blocks, in index order.

    Args:
      limit: inclusive upper bound, >= 2.
      threads: accepted and ignored (must be >= 1); segments are sieved
        one after another. Kept only for perfbench/traced.py --speedup,
        and removed together with its sieve.speedup_t2 metric.

    Raises:
      ValueError: limit < 2 or threads < 1.
      CapacityError: limit exceeds MAX_LIMIT.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    limit = _validate_limit(limit)
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")

    count = 0
    for low, mask in _segments(limit):
        primes = np.flatnonzero(mask)
        primes *= 2
        primes += low
        if low == 3:
            primes = np.concatenate([_TWO, primes])
        if not len(primes):
            continue
        primes.flags.writeable = False
        yield PrimeBlock(start_index=count + 1, primes=primes)
        count += len(primes)
    if count == 0:
        # limit 2: there is no odd segment at all
        two = _TWO.copy()
        two.flags.writeable = False
        yield PrimeBlock(start_index=1, primes=two)


def primes_upto(limit: int) -> np.ndarray:
    """All primes <= limit as one int64 array."""
    blocks = [b.primes for b in sieve_primes(limit)]
    return np.concatenate(blocks) if blocks else np.zeros(0, dtype=np.int64)


def _count_and_last(limit: int) -> tuple[int, int]:
    """(pi(limit), the largest prime <= limit); limit >= 2.

    Counts each segment bitmap in place. Only the last _TAIL odd numbers
    of a segment are searched for its largest prime, unless none of them
    is prime; no block of primes is built.
    """
    limit = _validate_limit(limit)
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    count, last = 1, 2
    for low, mask in _segments(limit):
        c = int(np.count_nonzero(mask))
        if c:
            count += c
            tail = mask[-_TAIL:]
            pos = np.flatnonzero(tail)
            if not len(pos):
                tail, pos = mask, np.flatnonzero(mask)
            last = low + 2 * (len(mask) - len(tail) + int(pos[-1]))
    return count, last


def prime_count(limit: int) -> int:
    """pi(limit): the number of primes <= limit. Zero for limit < 2.

    Counts each segment bitmap in place; no prime is materialized.
    """
    limit = _validate_limit(limit)
    if limit < 0:
        raise ValueError(f"limit must be >= 0, got {limit}")
    if limit < 2:
        return 0
    return _count_and_last(limit)[0]


def _nth_prime_bound(n: int) -> int:
    """Upper bound for p_n: n (ln n + ln ln n) for n >= 6 (Rosser)."""
    if n < 6:
        return 12
    x = float(n)
    return int(x * (math.log(x) + math.log(math.log(x)))) + 1


def nth_prime(n: int) -> int:
    """The n-th prime, 1-based: nth_prime(1) = 2.

    Raises:
      ValueError: n < 1.
      CapacityError: p_n would exceed MAX_LIMIT.
    """
    if n < 1:
        raise ValueError(f"prime index must be >= 1, got {n}")
    bound = _nth_prime_bound(n)
    if bound > MAX_LIMIT:
        raise CapacityError(f"p_{n} exceeds the supported maximum value {MAX_LIMIT}")
    seen = 0
    for block in sieve_primes(bound):
        if seen + len(block) >= n:
            return int(block.primes[n - 1 - seen])
        seen += len(block)
    raise AssertionError(f"no p_{n} below its bound {bound}")


def write_dump_block(fh: BinaryIO, block: PrimeBlock) -> None:
    """Append one block to an open prime dump.

    A dump is a raw concatenation of little-endian 64-bit integers ('<i8'),
    in index order, suitable for numpy.fromfile.
    """
    block.primes.astype("<i8").tofile(fh)


def read_prime_dump(path: str) -> np.ndarray:
    """Read a prime dump written block by block with write_dump_block."""
    return np.fromfile(path, dtype="<i8")
