"""Per-symbol GF(2^8) kernels on byte-substitution tables (stdlib only).

One datagram is one Shamir secret, so the protocol's hot path splits and
reconstructs one short byte string at a time.  At that size the numpy grid
kernels in :mod:`repro.gf.batch` spend most of their time in fixed per-call
dispatch, not arithmetic.  This module does the same field arithmetic with
``bytes.translate``:

* multiplying every byte of a string by a field constant ``c`` is a byte
  substitution, ``data.translate(MUL[c])``, through one of 256 precomputed
  256-byte tables built once at import from the log/antilog tables of
  :mod:`repro.gf.gf256`;
* adding (XOR-ing) two byte strings is one ``^`` of their
  ``int.from_bytes`` images.

:class:`~repro.sharing.shamir.ShamirScheme` runs ``split`` through
:func:`bytes_eval_at_points` and ``reconstruct`` through
:func:`bytes_interpolate`.  Batches (``split_many``/``reconstruct_many``),
the ramp scheme and the robust decoder keep the grid kernels of
:mod:`repro.gf.batch`.  Both are exact field arithmetic over the same
tables, so their results are bit-identical to each other and to the scalar
oracle (``tests/test_gf_bytetab.py``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Sequence, Tuple

from repro.gf.gf256 import _EXP, _LOG

__all__ = ["MUL", "bytes_eval_at_points", "bytes_interpolate", "lagrange_coeffs"]


def _build_mul_tables() -> Tuple[bytes, ...]:
    exp2 = bytes(_EXP + _EXP)  # exp2[log a + log b] needs no "% 255"
    # Byte b - 1 of log_of is log b.  Translating it through the antilog
    # table shifted by log c gives c * b for every nonzero b in one call.
    log_of = bytes(_LOG[1:])
    return (bytes(256),) + tuple(
        b"\0" + log_of.translate(exp2[_LOG[c] : _LOG[c] + 255] + b"\0") for c in range(1, 256)
    )


#: ``MUL[c][b] == c * b`` in GF(2^8): ``data.translate(MUL[c])`` scales
#: every byte of ``data`` by ``c``.
MUL = _build_mul_tables()


@lru_cache(maxsize=256)
def _power_tables(j: int, m: int) -> Tuple[bytes, ...]:
    """``MUL[x ** j]`` for x = 1..m: the tables that scale row j into share x."""
    return tuple(MUL[_EXP[(_LOG[x] * j) % 255]] for x in range(1, m + 1))


def bytes_eval_at_points(rows: Sequence[bytes], m: int) -> List[bytes]:
    """Evaluate byte-wise polynomials at x = 1..m.

    ``rows[j]`` holds coefficient j (constant term first) of the polynomial
    for every byte position; all rows have the same length ``n``.  Returns
    ``m`` strings of ``n`` bytes, string ``x - 1`` being every polynomial at
    ``x``: the XOR over j of ``rows[j]`` scaled by ``x ** j``.  Each row is
    scaled for all m points into one ``m * n``-byte string and folded into
    the accumulator with a single XOR.
    """
    n = len(rows[0])
    acc = int.from_bytes(rows[0] * m, "little")
    for j in range(1, len(rows)):
        row = rows[j]
        acc ^= int.from_bytes(
            b"".join([row.translate(table) for table in _power_tables(j, m)]), "little"
        )
    flat = acc.to_bytes(n * m, "little")
    return [flat[i : i + n] for i in range(0, n * m, n)] if n else [b""] * m


@lru_cache(maxsize=1024)
def lagrange_coeffs(xs: Tuple[int, ...], x: int = 0) -> Tuple[int, ...]:
    """Lagrange basis coefficients ``l_i(x)`` for the nodes ``xs`` (cached).

    The same values as :func:`repro.gf.batch.lagrange_coeffs_at`, as a
    tuple of ints in node order.  The cache is keyed by the ordered node
    tuple and ``x``; a receiver meets at most a few hundred such keys.
    """
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation points must have distinct x-coordinates")
    if x in xs:
        raise ValueError("evaluation point coincides with an interpolation node")
    log_diff = [_LOG[x ^ node] for node in xs]
    log_num = sum(log_diff)
    return tuple(
        _EXP[(log_num - log_diff[i] - sum(_LOG[node ^ other] for other in xs)) % 255]
        for i, node in enumerate(xs)
    )


def bytes_interpolate(xs: Tuple[int, ...], ys: Sequence[bytes], x: int = 0) -> bytes:
    """Evaluate at ``x`` the byte-wise polynomial through ``(xs[i], ys[i])``.

    ``ys`` are equal-length byte strings; the result is the XOR over i of
    ``ys[i]`` scaled by the cached coefficient ``l_i(x)``.  With ``x = 0``
    this recovers a Shamir secret.
    """
    acc = 0
    for y, c in zip(ys, lagrange_coeffs(xs, x)):
        acc ^= int.from_bytes(y.translate(MUL[c]), "little")
    return acc.to_bytes(len(ys[0]), "little")
