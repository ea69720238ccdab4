"""The 3D lattice oracle for the partial-wave reduction.

Explicit angular spinors for the channels k in {0, -2} (the constant spinor
(1, 0)/sqrt(4 pi) and its sigma.x_hat partner) and central-difference
quadrature of int |sigma.grad phi|^2 dx and int W |phi|^2 dx on a cubic
lattice; the radial norms of ``hardydirac.channels`` must agree with them.
"""

import math

import numpy as np

from hardydirac.channels import SpinorField


_SQRT4PI = math.sqrt(4.0 * math.pi)


def evaluate_spinor(field: SpinorField, x) -> np.ndarray:
    """Evaluate a {0, -2}-channel field at points in R^3.

    Returns complex values of shape x.shape[:-1] + (2,), using the constant
    spinor (1,0)/sqrt(4 pi) for k=0 and its sigma.x_hat partner for k=-2.
    """
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != 3:
        raise ValueError("points must have a trailing dimension of size 3")
    r = np.sqrt(np.sum(x * x, axis=-1))
    if np.any(r == 0.0):
        raise ValueError("cannot evaluate angular spinors at the origin")
    out = np.zeros(x.shape[:-1] + (2,), dtype=complex)
    for ch, prof in field.terms:
        if ch.k == 0:
            out[..., 0] += prof(r) / _SQRT4PI
        elif ch.k == -2:
            f = prof(r) / _SQRT4PI
            xhat = x / r[..., None]
            out[..., 0] += f * xhat[..., 2]
            out[..., 1] += f * (xhat[..., 0] + 1j * xhat[..., 1])
        else:
            raise ValueError(f"no explicit angular spinor for k={ch.k}")
    return out


def _lattice_axes(spacing: float, extent: float):
    n = max(int(round(2.0 * extent / spacing)), 8)
    return (np.arange(n) - 0.5 * (n - 1)) * spacing


def lattice_sigma_grad_norm(field: SpinorField, spacing: float = 0.05,
                            extent: float = 3.2) -> float:
    """3D central-difference evaluation of int |sigma.grad phi|^2 dx.

    The lattice is staggered off the origin; the field must decay well
    inside ``extent``.  Works plane by plane to keep memory flat.
    """
    xs = _lattice_axes(spacing, extent)
    n = xs.size
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    pts = np.empty((n, n, 3))
    pts[:, :, 0] = X
    pts[:, :, 1] = Y

    def plane(iz: int) -> np.ndarray:
        pts[:, :, 2] = xs[iz]
        return evaluate_spinor(field, pts)

    total = 0.0
    prev, cur = plane(0), plane(1)
    two_h = 2.0 * spacing
    for iz in range(1, n - 1):
        nxt = plane(iz + 1)
        dz = (nxt - prev) / two_h
        dx = (cur[2:, 1:-1] - cur[:-2, 1:-1]) / two_h
        dy = (cur[1:-1, 2:] - cur[1:-1, :-2]) / two_h
        dzc = dz[1:-1, 1:-1]
        comp0 = dzc[..., 0] + dx[..., 1] - 1j * dy[..., 1]
        comp1 = dx[..., 0] + 1j * dy[..., 0] - dzc[..., 1]
        total += float(np.sum(np.abs(comp0) ** 2 + np.abs(comp1) ** 2))
        prev, cur = cur, nxt
    return total * spacing ** 3


def lattice_weighted_norm(field: SpinorField, weight=None, spacing: float = 0.05,
                          extent: float = 3.2) -> float:
    """3D lattice quadrature of int W |phi|^2 dx (W radial, default 1)."""
    xs = _lattice_axes(spacing, extent)
    n = xs.size
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    pts = np.empty((n, n, 3))
    pts[:, :, 0] = X
    pts[:, :, 1] = Y
    w = weight if weight is not None else (lambda r: 1.0)
    total = 0.0
    for iz in range(n):
        pts[:, :, 2] = xs[iz]
        phi = evaluate_spinor(field, pts)
        r = np.sqrt(X * X + Y * Y + xs[iz] ** 2)
        wv = np.asarray(w(r), dtype=float)
        total += float(np.sum(wv * np.sum(np.abs(phi) ** 2, axis=-1)))
    return total * spacing ** 3
