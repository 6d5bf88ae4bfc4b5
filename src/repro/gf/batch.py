"""Vectorized GF(2^8) grid kernels for batched secret sharing.

The scalar field in :mod:`repro.gf.gf256` and the generic polynomial code in
:mod:`repro.gf.poly` are the *reference oracle*: correct, simple, and slow.
This module re-expresses the two sharing primitives -- polynomial evaluation
and Lagrange interpolation -- as numpy table translations over ``uint8``
arrays so a whole datagram batch (every byte position x every share point)
moves through the field in a handful of vectorized passes, mirroring the
``BatchReconstruction`` idiom of batched-MPC systems.  They serve
``ShamirScheme.split_many``/``reconstruct_many``, the ramp scheme and the
robust decoder.  One symbol at a time -- ``ShamirScheme.split`` and
``reconstruct`` -- runs on the byte-substitution kernels of
:mod:`repro.gf.bytetab` instead, where numpy's fixed per-call cost would
outweigh the arithmetic.

Everything here is *exact* field arithmetic over the same AES-polynomial
log/antilog tables the scalar path builds, so batch results are bit-identical
to the scalar oracle byte for byte -- a property the test suite
(``tests/test_sharing_batch_equiv.py``) enforces, because the privacy model
(``H(Y) = H(X)``, Sec. III-C of the paper) assumes exact field semantics.

Table layout:

* ``EXP_TABLE`` is the antilog table doubled to length 510 so that
  ``EXP_TABLE[log a + log b]`` needs no ``% 255`` in products.
* ``LOG_TABLE`` is ``int16`` (sums of two logs stay in range) with the
  meaningless ``log 0`` entry pinned to 0; every kernel masks zero operands
  back to zero explicitly rather than trusting that sentinel.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.gf.gf256 import _EXP, _LOG

__all__ = [
    "EXP_TABLE",
    "LOG_TABLE",
    "gf_mul_vec",
    "gf_div_vec",
    "gf_inv_vec",
    "gf_pow_vec",
    "eval_poly_at_points",
    "lagrange_coeffs_at",
    "lagrange_interpolate",
]

#: Doubled antilog table: indices 0..508 cover any sum of two logs.
EXP_TABLE = np.array(_EXP + _EXP, dtype=np.uint8)

#: Log table with the (undefined) log of zero pinned to 0; zero inputs are
#: handled by explicit masks in every kernel.
LOG_TABLE = np.array([0] + _LOG[1:], dtype=np.int16)


def _as_u8(a) -> np.ndarray:
    arr = np.asarray(a)
    if arr.dtype != np.uint8:
        if arr.size and (arr.min() < 0 or arr.max() > 255):
            raise ValueError("GF(256) elements must be in 0..255")
        arr = arr.astype(np.uint8)
    return arr


def gf_mul_vec(a, b) -> np.ndarray:
    """Element-wise GF(2^8) product of two broadcastable uint8 arrays."""
    a = _as_u8(a)
    b = _as_u8(b)
    prod = EXP_TABLE[LOG_TABLE[a].astype(np.int32) + LOG_TABLE[b]]
    return np.where((a == 0) | (b == 0), np.uint8(0), prod)


def gf_inv_vec(a) -> np.ndarray:
    """Element-wise multiplicative inverse; raises on any zero element."""
    a = _as_u8(a)
    if np.any(a == 0):
        raise ZeroDivisionError("0 has no multiplicative inverse in GF(256)")
    return EXP_TABLE[255 - LOG_TABLE[a]]


def gf_div_vec(a, b) -> np.ndarray:
    """Element-wise GF(2^8) quotient ``a / b``; raises if ``b`` has zeros."""
    a = _as_u8(a)
    b = _as_u8(b)
    if np.any(b == 0):
        raise ZeroDivisionError("division by zero in GF(256)")
    quot = EXP_TABLE[LOG_TABLE[a].astype(np.int32) - LOG_TABLE[b] + 255]
    return np.where(a == 0, np.uint8(0), quot)


def gf_pow_vec(base, exponent) -> np.ndarray:
    """Element-wise ``base ** exponent`` with non-negative integer exponents.

    Follows the usual field conventions: ``x ** 0 == 1`` for every ``x``
    (including 0) and ``0 ** e == 0`` for ``e > 0``.
    """
    base = _as_u8(base)
    exponent = np.asarray(exponent)
    if exponent.size and exponent.min() < 0:
        raise ValueError("exponents must be non-negative")
    log_pow = (LOG_TABLE[base].astype(np.int64) * exponent) % 255
    out = EXP_TABLE[log_pow]
    out = np.where((base == 0) & (exponent > 0), np.uint8(0), out)
    return np.where(exponent == 0, np.uint8(1), out)


def eval_poly_at_points(coeffs: np.ndarray, xs) -> np.ndarray:
    """Evaluate ``n`` byte-wise polynomials at ``m`` points in one pass.

    Args:
        coeffs: uint8 array of shape ``(k, n)``; column ``b`` holds the
            coefficients (constant term first) of the polynomial for byte
            position ``b``.  A 1-D ``(k,)`` array is a single polynomial
            and yields a ``(m,)`` result.
        xs: the ``m`` evaluation points (uint8).

    Returns:
        uint8 array of shape ``(m, n)`` (or ``(m,)`` for 1-D ``coeffs``)
        where row ``i`` is the evaluation of every byte polynomial at
        ``xs[i]`` -- i.e. share ``xs[i]`` of the whole batch, by Horner's
        rule vectorized over the full ``m x n`` grid.
    """
    coeffs = _as_u8(coeffs)
    squeeze = coeffs.ndim == 1
    if squeeze:
        coeffs = coeffs[:, None]
    if coeffs.ndim != 2 or coeffs.shape[0] == 0:
        raise ValueError("coeffs must be a non-empty (k, n) array")
    xs = np.atleast_1d(_as_u8(xs))
    k, n = coeffs.shape
    m = xs.shape[0]
    acc = np.broadcast_to(coeffs[-1], (m, n)).copy()
    if k > 1:
        log_x = LOG_TABLE[xs][:, None]
        zero_x = (xs == 0)[:, None]
        for j in range(k - 2, -1, -1):
            prod = EXP_TABLE[LOG_TABLE[acc] + log_x]
            np.bitwise_xor(
                np.where(zero_x | (acc == 0), np.uint8(0), prod),
                coeffs[j],
                out=acc,
            )
    return acc[:, 0] if squeeze else acc


def lagrange_coeffs_at(xs, x: int = 0) -> np.ndarray:
    """Lagrange basis coefficients ``l_i(x)`` for nodes ``xs``, vectorized.

    Returns the uint8 vector ``c`` with ``c[i] = prod_{j != i}
    (x - x_j) / (x_i - x_j)`` (subtraction is XOR in characteristic 2), so
    that the interpolating polynomial through ``(x_i, y_i)`` evaluates at
    ``x`` to ``xor_i c[i] * y_i``.

    Requires ``x`` to differ from every node (when ``x`` *is* a node the
    caller already holds the answer); nodes must be distinct.
    """
    xs = np.atleast_1d(_as_u8(xs))
    t = xs.shape[0]
    if len(set(xs.tolist())) != t:
        raise ValueError("interpolation points must have distinct x-coordinates")
    diff = np.bitwise_xor(xs, np.uint8(x))
    if np.any(diff == 0):
        raise ValueError("evaluation point coincides with an interpolation node")
    # All numerators and denominators are nonzero, so the product collapses
    # to sums of logs: log c_i = sum_{j != i} log(x ^ x_j)
    #                           - sum_{j != i} log(x_i ^ x_j)  (mod 255).
    log_diff = LOG_TABLE[diff].astype(np.int64)
    log_num = log_diff.sum() - log_diff
    # The pairwise table has zeros on the diagonal; LOG_TABLE[0] == 0 makes
    # the diagonal contribute nothing to the row sums.
    pairwise = np.bitwise_xor(xs[:, None], xs[None, :])
    log_den = LOG_TABLE[pairwise].astype(np.int64).sum(axis=1)
    return EXP_TABLE[(log_num - log_den) % 255]


def lagrange_interpolate(xs, ys: np.ndarray, x: int = 0) -> np.ndarray:
    """Interpolate a whole share batch and evaluate at ``x`` in one pass.

    Args:
        xs: the ``t`` distinct interpolation nodes (share indices).
        ys: uint8 array of shape ``(t, n)``; row ``i`` is share ``xs[i]``
            of an ``n``-byte batch.
        x: evaluation point; 0 recovers the Shamir secret.

    Returns:
        uint8 array of shape ``(n,)``: the unique degree-<t byte-wise
        polynomial through the shares, evaluated at ``x`` for every byte
        position at once.
    """
    xs = np.atleast_1d(_as_u8(xs))
    ys = _as_u8(ys)
    if ys.ndim != 2 or ys.shape[0] != xs.shape[0]:
        raise ValueError("ys must have shape (len(xs), n)")
    hit: Optional[int] = None
    for i, node in enumerate(xs.tolist()):
        if node == x:
            hit = i
            break
    if hit is not None:
        if len(set(xs.tolist())) != xs.shape[0]:
            raise ValueError("interpolation points must have distinct x-coordinates")
        return ys[hit].copy()
    coeffs = lagrange_coeffs_at(xs, x)
    terms = gf_mul_vec(ys, coeffs[:, None])
    return np.bitwise_xor.reduce(terms, axis=0)
