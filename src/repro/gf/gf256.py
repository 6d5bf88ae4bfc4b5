"""The binary extension field GF(2^8).

This is the workhorse field for byte-oriented secret sharing: every byte of
a payload is treated as one field element and shared independently, so a
share of an N-byte symbol is itself N bytes -- satisfying the model's
``H(Y) = H(X)`` optimality assumption (Sec. III-C of the paper) exactly.

Multiplication uses log/antilog tables over a fixed generator, which makes
``split``/``reconstruct`` fast enough for the protocol simulator to share
millions of bytes per benchmark run.  The reduction polynomial is the AES
polynomial ``x^8 + x^4 + x^3 + x + 1`` (0x11b); any irreducible polynomial
would do, but using a well-known one simplifies cross-checking test vectors.

This scalar implementation doubles as the *reference oracle* for the
per-symbol kernels in :mod:`repro.gf.bytetab` and the vectorized kernels in
:mod:`repro.gf.batch`: both must be bit-identical to it
(``tests/test_gf_bytetab.py``, ``tests/test_sharing_batch_equiv.py``), and
the bit-by-bit :func:`_carryless_mul` below is the independent oracle the
byte tables and the golden-vector suite (``tests/test_gf_vectors.py``) are
checked against.
"""

from __future__ import annotations

from typing import List

from repro.gf.field import Field

#: AES reduction polynomial for GF(2^8).
REDUCTION_POLY = 0x11B

#: Generator element used to build the log/antilog tables.  3 (= x + 1) is
#: a primitive element of GF(2^8) under the AES polynomial.
GENERATOR = 0x03


def _carryless_mul(a: int, b: int) -> int:
    """Multiply two GF(2^8) elements bit-by-bit with polynomial reduction.

    Used only to build the tables (and by tests as an independent oracle).
    """
    result = 0
    while b:
        if b & 1:
            result ^= a
        a <<= 1
        if a & 0x100:
            a ^= REDUCTION_POLY
        b >>= 1
    return result


def _build_tables() -> "tuple[List[int], List[int]]":
    """Build antilog (exp) and log tables for the generator element."""
    exp = [0] * 255
    log = [0] * 256
    value = 1
    for power in range(255):
        exp[power] = value
        log[value] = power
        value = _carryless_mul(value, GENERATOR)
    if value != 1:  # pragma: no cover - sanity check on constants
        raise AssertionError("generator does not have order 255")
    return exp, log


_EXP, _LOG = _build_tables()


class GF256(Field):
    """GF(2^8) with table-driven arithmetic.

    The field is stateless, so a module-level singleton
    (:data:`repro.gf.gf256.GF256_FIELD`) is provided and should normally be
    used instead of constructing new instances.
    """

    order = 256

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def neg(self, a: int) -> int:
        # Characteristic 2: every element is its own additive inverse.
        return a

    def sub(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return _EXP[(_LOG[a] + _LOG[b]) % 255]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse in GF(256)")
        return _EXP[(255 - _LOG[a]) % 255]

    def div(self, a: int, b: int) -> int:
        if b == 0:
            raise ZeroDivisionError("division by zero in GF(256)")
        if a == 0:
            return 0
        return _EXP[(_LOG[a] - _LOG[b]) % 255]


#: Shared singleton; GF(2^8) arithmetic is stateless.
GF256_FIELD = GF256()
