"""Boundary curves, auxiliary surfaces, collocation points and excitations.

All curves are star shaped and parameterized by the polar angle phi, with
lengths expressed as (exterior wavenumber) * (physical length) so the whole
problem is dimensionless. Auxiliary surfaces are similarity scalings of the
boundary about its center, which keeps them star shaped with radius
sigma * r(phi).
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

_TWO_PI = 2.0 * np.pi
# where AuxiliarySurface.validate_against compares a surface with its boundary
_CHECK_ANGLES = np.linspace(0.0, _TWO_PI, 720, endpoint=False)


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
        if kind == "star":  # circle() and ellipse() check their parameters instead
            r_probe = np.asarray(radius_fn(np.linspace(0.0, _TWO_PI, 64)))
            if not np.all(np.isfinite(r_probe)) or np.any(r_probe <= 0.0):
                raise ValueError("curve radius must be positive and finite everywhere")

    @classmethod
    def circle(cls, radius):
        radius = float(radius)
        if not 0.0 < radius < np.inf:
            raise ValueError("circle radius must be positive and finite")
        return cls(
            "circle",
            lambda phi: np.full(np.shape(phi), radius),
            lambda phi: np.zeros(np.shape(phi)),
            {"radius": radius},
        )

    @classmethod
    def ellipse(cls, semi_major, semi_minor):
        a, b = float(semi_major), float(semi_minor)
        if not (0.0 < a < np.inf and 0.0 < b < np.inf):
            raise ValueError("ellipse semi-axes must be positive and finite")

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
        if not 0.0 < factor < np.inf:
            raise ValueError("scale factor must be positive and finite")
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
        Raises ValueError naming a radius or an angle that is not finite.
        """
        rho = float(rho)
        if not math.isfinite(rho):
            raise ValueError("observation radius must be finite, got %r" % rho)
        if not np.isfinite(phi).all():
            raise ValueError("observation angles must be finite")
        return rho < np.asarray(self.radius(phi))


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

    def validate_against(self, base):
        """Raise ValueError unless the surface lies strictly on its side of base
        at each of the 720 angles of _CHECK_ANGLES; two circles compare radii."""
        if self.curve.kind == base.kind == "circle":  # one radius each: one comparison decides
            r_aux, r_base, every = self.curve.params["radius"], base.params["radius"], bool
        else:
            r_aux, r_base = self.curve.radius(_CHECK_ANGLES), base.radius(_CHECK_ANGLES)
            every = np.all
        if self.side == "inner" and not every(r_aux < r_base):
            raise ValueError("inner auxiliary surface must lie strictly inside the boundary")
        if self.side == "outer" and not every(r_aux > r_base):
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
        r = curve.params["radius"] if curve.kind == "circle" else curve.radius(self.phi)
        if self.region == "external" and not self.rho > r:
            raise ValueError("external excitation must lie outside the boundary")
        if self.region == "internal" and not self.rho < r:
            raise ValueError("internal excitation must lie inside the boundary")


def as_count(value, name):
    """value as an int; ValueError naming name unless a finite whole number, not of bool dtype."""
    if type(value) is int:  # the common case, decided without numpy
        return value
    try:
        if int(value) == value and np.asarray(value).dtype != bool:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError("%s must be an integer, got %r" % (name, value))


def check_placement(curve, aux_inner, aux_outer, excitation):
    """Raise ValueError unless the surfaces come inner then outer and each
    surface and the filament lie strictly on their side of curve."""
    if aux_inner.side != "inner" or aux_outer.side != "outer":
        raise ValueError("pass the inner surface first and the outer surface second")
    aux_inner.validate_against(curve)
    aux_outer.validate_against(curve)
    excitation.validate_against(curve)


def collocation_points(curve, N, *surfaces):
    """N points at phi_l = 2 pi l / N with outward unit normals.

    Returns (points, normals, phis) with shapes (N, 2), (N, 2), (N,),
    followed by the points of each curve of surfaces at the same angles.
    Every point set and the normals are formed from one cos and sin of the
    angles, with the bits of curve.point and curve.normal.
    """
    N = as_count(N, "N")
    if N < 4:
        raise ValueError("need at least 4 collocation points")
    phis = _TWO_PI * np.arange(N) / N
    cos, sin = np.cos(phis), np.sin(phis)
    r, dr = curve.radius(phis), curve.radius_deriv(phis)
    nx = r * cos + dr * sin
    ny = r * sin - dr * cos
    norm = np.hypot(nx, ny)
    normals = np.empty((N, 2))
    np.divide(nx, norm, out=normals[:, 0])
    np.divide(ny, norm, out=normals[:, 1])

    def points(rho):
        out = np.empty((N, 2))
        np.multiply(rho, cos, out=out[:, 0])
        np.multiply(rho, sin, out=out[:, 1])
        return out

    return (points(r), normals, phis) + tuple(points(s.radius(phis)) for s in surfaces)
