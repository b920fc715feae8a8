"""Boundary curves, auxiliary surfaces, collocation points and excitations.

All curves are star shaped and parameterized by the polar angle phi, with
lengths expressed as (exterior wavenumber) * (physical length) so the whole
problem is dimensionless. Auxiliary surfaces are similarity scalings of the
boundary about its center, which keeps them star shaped with radius
sigma * r(phi).
"""

import cmath
from dataclasses import dataclass

import numpy as np

_TWO_PI = 2.0 * np.pi


class BoundaryCurve:
    """Closed star-shaped curve r(phi) > 0, phi in [0, 2 pi).

    Construct through the circle / ellipse / star classmethods. Instances are
    immutable in practice (nothing mutates state after __init__) and can be
    shared freely between threads.
    """

    def __init__(self, kind, radius_fn, radius_deriv_fn, params=None):
        self.kind = kind
        self._radius_fn = radius_fn
        self._radius_deriv_fn = radius_deriv_fn
        self.params = dict(params or {})
        r_probe = np.asarray(radius_fn(np.linspace(0.0, _TWO_PI, 64)))
        if not np.all(np.isfinite(r_probe)) or np.any(r_probe <= 0.0):
            raise ValueError("curve radius must be positive and finite everywhere")

    @classmethod
    def circle(cls, radius):
        radius = float(radius)
        if radius <= 0.0:
            raise ValueError("circle radius must be positive")
        return cls(
            "circle",
            lambda phi: np.full_like(np.asarray(phi, dtype=float), radius),
            lambda phi: np.zeros_like(np.asarray(phi, dtype=float)),
            {"radius": radius},
        )

    @classmethod
    def ellipse(cls, semi_major, semi_minor):
        a, b = float(semi_major), float(semi_minor)
        if a <= 0.0 or b <= 0.0:
            raise ValueError("ellipse semi-axes must be positive")

        def r(phi):
            phi = np.asarray(phi, dtype=float)
            return a * b / np.sqrt((b * np.cos(phi)) ** 2 + (a * np.sin(phi)) ** 2)

        def dr(phi):
            phi = np.asarray(phi, dtype=float)
            g = (b * np.cos(phi)) ** 2 + (a * np.sin(phi)) ** 2
            return -a * b * (a**2 - b**2) * np.sin(phi) * np.cos(phi) * g ** (-1.5)

        return cls("ellipse", r, dr, {"semi_major": a, "semi_minor": b})

    @classmethod
    def star(cls, radius_fn, radius_deriv_fn):
        """Generic star-shaped curve from closed-form r(phi) and dr/dphi callables."""
        return cls("star", radius_fn, radius_deriv_fn, {})

    # -- geometry queries ---------------------------------------------------

    def radius(self, phi):
        out = np.asarray(self._radius_fn(np.asarray(phi, dtype=float)))
        return out if out.ndim else float(out)

    def radius_deriv(self, phi):
        out = np.asarray(self._radius_deriv_fn(np.asarray(phi, dtype=float)))
        return out if out.ndim else float(out)

    def point(self, phi):
        phi = np.asarray(phi, dtype=float)
        r = self.radius(phi)
        return np.stack([r * np.cos(phi), r * np.sin(phi)], axis=-1)

    def normal(self, phi):
        """Outward unit normal at parameter phi.

        With tangent t = d/dphi (r cos, r sin), the outward normal for a
        counterclockwise curve is t rotated by -90 degrees, normalized.
        """
        phi = np.asarray(phi, dtype=float)
        r = np.asarray(self.radius(phi))
        dr = np.asarray(self.radius_deriv(phi))
        nx = r * np.cos(phi) + dr * np.sin(phi)
        ny = r * np.sin(phi) - dr * np.cos(phi)
        norm = np.hypot(nx, ny)
        return np.stack([nx / norm, ny / norm], axis=-1)

    def scaled(self, factor):
        """Similarity scaling (x, y) -> (factor x, factor y)."""
        factor = float(factor)
        if factor <= 0.0:
            raise ValueError("scale factor must be positive")
        if self.kind == "circle":
            return BoundaryCurve.circle(factor * self.params["radius"])
        if self.kind == "ellipse":
            return BoundaryCurve.ellipse(
                factor * self.params["semi_major"], factor * self.params["semi_minor"]
            )
        base_r, base_dr = self._radius_fn, self._radius_deriv_fn
        return BoundaryCurve.star(
            lambda phi: factor * base_r(phi), lambda phi: factor * base_dr(phi)
        )

    def contains(self, rho, phi):
        """True where the polar point lies strictly inside the curve.

        phi is one angle or an array of angles; an array gives an array.
        """
        return float(rho) < np.asarray(self.radius(phi))


@dataclass(frozen=True)
class AuxiliarySurface:
    """A displaced copy of the boundary, strictly inside or outside it."""

    curve: BoundaryCurve
    side: str  # 'inner' or 'outer'

    def __post_init__(self):
        if self.side not in ("inner", "outer"):
            raise ValueError("side must be 'inner' or 'outer'")

    @classmethod
    def from_scale(cls, base, scale, side=None):
        scale = float(scale)
        if side is None:
            side = "inner" if scale < 1.0 else "outer"
        surf = cls(base.scaled(scale), side)
        surf.validate_against(base)
        return surf

    @classmethod
    def from_radius(cls, base, radius, side=None):
        if base.kind != "circle":
            raise ValueError("radius placement is only defined for circles")
        return cls.from_scale(base, float(radius) / base.params["radius"], side)

    def validate_against(self, base, samples=720):
        phi = np.linspace(0.0, _TWO_PI, samples, endpoint=False)
        r_aux = np.asarray(self.curve.radius(phi))
        r_base = np.asarray(base.radius(phi))
        if self.side == "inner" and not np.all(r_aux < r_base):
            raise ValueError("inner auxiliary surface must lie strictly inside the boundary")
        if self.side == "outer" and not np.all(r_aux > r_base):
            raise ValueError("outer auxiliary surface must lie strictly outside the boundary")


@dataclass(frozen=True)
class Excitation:
    """An electric line source parallel to the cylinder axis.

    region says which side of the boundary the filament sits on; rho/phi are
    its polar coordinates; amplitude is the complex line-current strength.
    """

    region: str  # 'external' or 'internal'
    rho: float
    phi: float = 0.0
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):
        if self.region not in ("external", "internal"):
            raise ValueError("region must be 'external' or 'internal'")
        if not 0.0 < self.rho < np.inf:
            raise ValueError("source radius rho must be positive and finite")
        for name in ("phi", "amplitude"):
            if not cmath.isfinite(getattr(self, name)):
                raise ValueError("source %s must be finite" % name)

    def position_xy(self):
        return np.array([self.rho * np.cos(self.phi), self.rho * np.sin(self.phi)])

    def validate_against(self, curve):
        """Raise ValueError unless the filament lies strictly on its side of curve."""
        r = curve.radius(self.phi)
        if self.region == "external" and not self.rho > r:
            raise ValueError("external excitation must lie outside the boundary")
        if self.region == "internal" and not self.rho < r:
            raise ValueError("internal excitation must lie inside the boundary")


def collocation_points(curve, N):
    """N points at phi_l = 2 pi l / N with outward unit normals.

    Returns (points, normals, phis) with shapes (N, 2), (N, 2), (N,).
    """
    N = int(N)
    if N < 4:
        raise ValueError("need at least 4 collocation points")
    phis = _TWO_PI * np.arange(N) / N
    return curve.point(phis), curve.normal(phis), phis


def pairwise_distances(points_a, points_b):
    """Distance matrix |a_p - b_l| between two point sets of shape (*, 2)."""
    points_a = np.asarray(points_a, dtype=float)
    points_b = np.asarray(points_b, dtype=float)
    dx = points_a[:, None, 0] - points_b[None, :, 0]
    dy = points_a[:, None, 1] - points_b[None, :, 1]
    dist = np.hypot(dx, dy)
    scale = max(np.max(np.abs(points_a)), np.max(np.abs(points_b)), 1.0)
    if np.any(dist < 1e-14 * scale):
        raise ValueError("coincident points between the two surfaces")
    return dist
