"""Assembly of measurable responses from the scalar building blocks.

The scalar triple fixes everything; this layer wires it into permittivity,
inverse permeability, their anisotropic parts along the wavevector, the
magnetoelectric cross terms, susceptibilities relative to the matter-free
baseline, and full 3x3 constitutive tensors for an arbitrary direction.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (
    Kinematics,
    Regime,
    ResponseSet,
    ScalarTriple,
    Susceptibilities,
    ThermoState,
)
from .quadrature import DEFAULT_TOL
from .scalar_functions import scalar_triple


def assemble_responses(scalars: ScalarTriple, kin: Kinematics) -> ResponseSet:
    """Combine the scalar triple at one point into the six scalar responses.

    The long-wavelength route carries the rescaled transverse scalar W so the
    omega^2/qmag^2 amplification can be cancelled analytically; the generic
    route keeps the raw ratio, which is fine whenever bStar stays finite.
    """
    c, ratio = scalars.cStar, scalars.cStarRatio
    a_s, b_s = scalars.aStar, scalars.bStar
    w2, q2 = kin.omega**2, kin.qmag**2
    base_e = 1.0 + 2.0 * c - w2 * ratio + a_s
    base_m = 1.0 + 2.0 * c + q2 * ratio + a_s
    eps_prime = q2 * ratio - a_s

    if scalars.longwaveW is not None:
        w = scalars.longwaveW
        eps = base_e + (b_s - w)
        mu_inv = base_m - 2.0 * w
        tau = kin.omega * kin.qmag * ratio - (kin.qmag / kin.omega) * w \
            if kin.omega > 0.0 else 0.0
    elif kin.qmag > 0.0:
        eps = base_e + (1.0 - w2 / q2) * b_s
        mu_inv = base_m - 2.0 * (w2 / q2) * b_s
        tau = (kin.omega / kin.qmag) * (q2 * ratio - b_s)
    else:
        # qmag = 0 outside the long-wavelength route only happens matter-free
        eps = base_e + b_s
        mu_inv = base_m
        tau = 0.0

    return ResponseSet(eps=eps, muInv=mu_inv, epsPrime=eps_prime,
                       muPrimeInv=-eps_prime, tau=tau, sigma=tau)


def response_error_bounds(scalars: ScalarTriple,
                          kin: Kinematics) -> tuple[float, float, float]:
    """Error bounds on (eps, muInv, tau) from the triple's errEst.

    errEst bounds aStar, bStar and dStar alike (and W on the long-wavelength
    route); cStar is a closed form.  Each bound sums |coefficient| * errEst
    over the quadrature scalars that assemble_responses combines.
    """
    e = scalars.errEst
    if scalars.longwaveW is not None:
        return 3.0 * e, 3.0 * e, (kin.qmag / kin.omega) * e if kin.omega > 0.0 else 0.0
    if kin.qmag > 0.0:
        r = kin.omega**2 / kin.qmag**2
        return (1.0 + abs(1.0 - r)) * e, (1.0 + 2.0 * r) * e, (kin.omega / kin.qmag) * e
    return 2.0 * e, e, 0.0


def evaluate_point(kin: Kinematics, state: ThermoState,
                   regime: Regime | str | None = None,
                   tol: float = DEFAULT_TOL) -> tuple[ScalarTriple, ResponseSet]:
    """Scalar triple and assembled responses, with the matter-free baseline attached."""
    tr = scalar_triple(kin, state, regime=regime, tol=tol)
    full = assemble_responses(tr, kin)
    bare = ScalarTriple(0.0, 0.0, tr.cStar, 0.0, regime=Regime.Vacuum,
                        cStarRatio=tr.cStarRatio)
    vac = assemble_responses(bare, kin)
    return tr, replace(full, vacuum=vac)


def susceptibilities(full: ResponseSet, vacuumOnly: ResponseSet) -> Susceptibilities:
    """Matter contributions: electric-type counted up, magnetic-type flipped."""
    return Susceptibilities(
        chiE=full.eps - vacuumOnly.eps,
        chiEPrime=full.epsPrime - vacuumOnly.epsPrime,
        chiEM=full.tau - vacuumOnly.tau,
        chiM=-(full.muInv - vacuumOnly.muInv),
        chiMPrime=-(full.muPrimeInv - vacuumOnly.muPrimeInv),
        chiME=-(full.sigma - vacuumOnly.sigma),
    )


@dataclass(frozen=True)
class ConstitutiveTensors:
    epsT: np.ndarray
    muInvT: np.ndarray
    tauT: np.ndarray
    sigmaT: np.ndarray
    qhat: np.ndarray


def constitutive_tensors(r: ResponseSet, qdir) -> ConstitutiveTensors:
    """3x3 material tensors for a wavevector along qdir.

    Isotropic part plus a dyadic along the unit wavevector for the symmetric
    tensors; the cross couplings enter through the antisymmetric matrix that
    maps v to v x qhat.
    """
    q = np.asarray(qdir, dtype=float)
    if q.shape != (3,):
        raise ValueError("qdir must be a 3-vector")
    norm = float(np.linalg.norm(q))
    if norm == 0.0 or not np.isfinite(norm):
        raise ValueError("qdir must have a finite nonzero length")
    qhat = q / norm
    eye = np.eye(3)
    dyad = np.outer(qhat, qhat)
    cross = np.array([
        [0.0, qhat[2], -qhat[1]],
        [-qhat[2], 0.0, qhat[0]],
        [qhat[1], -qhat[0], 0.0],
    ])
    return ConstitutiveTensors(
        epsT=r.eps * eye + r.epsPrime * dyad,
        muInvT=r.muInv * eye + r.muPrimeInv * dyad,
        tauT=r.tau * cross,
        sigmaT=r.sigma * cross,
        qhat=qhat,
    )
