"""Compact MOSFET model: smoothed square law with velocity saturation.

The model is a SPICE level-1 style square law augmented with:

* a smooth effective overdrive ``veff = softmax(vgs - vth, 0)`` so the
  cutoff/strong-inversion corner is continuously differentiable (Newton
  never sees a kink);
* a ``tanh`` triode/saturation blend, again for C1 continuity;
* velocity-saturation degradation ``1 / (1 + veff / (esat * L))``;
* channel-length modulation ``(1 + lambda * vds)`` with ``lambda``
  inversely proportional to channel length;
* body effect on the threshold voltage.

PMOS devices and reverse (drain/source swapped) operation are handled by
terminal transformations, as in SPICE.  All derivatives are analytic, so the
DC Newton solver converges quadratically near a solution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.tech.process import MosfetParams

#: Smoothing width for the cutoff transition [V].
_VEFF_DELTA = 5e-3
#: Minimum off conductance to keep Jacobians non-singular [S].
_GDS_MIN = 1e-12


@dataclass(frozen=True)
class MosfetOperatingPoint:
    """Small-signal view of a MOSFET at a DC operating point.

    Currents/voltages are in the device's *terminal* convention (drain
    current positive into the drain for NMOS conducting normally; negative
    for PMOS).  Derivatives are partials of the terminal drain current with
    respect to terminal voltages, suitable for direct MNA stamping.
    """

    ids: float  #: Terminal drain current [A] (into drain).
    vgs: float  #: Applied gate-source voltage [V].
    vds: float  #: Applied drain-source voltage [V].
    vbs: float  #: Applied bulk-source voltage [V].
    vth: float  #: Effective threshold (polarity-normalized, positive) [V].
    vov: float  #: Effective overdrive used by the model [V].
    vdsat: float  #: Saturation voltage [V].
    gm: float  #: d(ids)/d(vgs) [S].
    gds: float  #: d(ids)/d(vds) [S].
    gmb: float  #: d(ids)/d(vbs) [S].
    cgs: float  #: Gate-source capacitance [F].
    cgd: float  #: Gate-drain capacitance [F].
    cgb: float  #: Gate-bulk capacitance [F].
    cdb: float  #: Drain-bulk junction capacitance [F].
    csb: float  #: Source-bulk junction capacitance [F].
    region: str  #: 'cutoff', 'triode' or 'saturation'.


def device_constants(
    params: MosfetParams, w: float, l: float
) -> tuple[int, float, float, float, float, float, float, float, float]:
    """The bias-independent constants of one device, for :func:`device_current`.

    Returns ``(polarity, phi, vsb_min, sqrt(phi), vth0, gamma, kp * (w / l),
    esat * l, lambda_l / l)``, where ``vsb_min = -phi + 0.05`` is the body
    clamp.  Each is the exact expression the model evaluates, so hoisting
    them out of a Newton loop (once per bound circuit) changes no bit.
    """
    phi = params.phi
    return (
        params.polarity,
        phi,
        -phi + 0.05,
        math.sqrt(phi),
        params.vth0,
        params.gamma,
        params.kp * (w / l),
        params.esat * l,
        params.lambda_l / l,
    )


#: ``4 * delta**2`` of the smooth overdrive, in the model's evaluation order.
_VEFF_DELTA_SQ4 = 4.0 * _VEFF_DELTA * _VEFF_DELTA


def _forward_current(
    constants: tuple, vgs: float, vds: float, vbs: float
) -> tuple[float, float, float, float, float, float, float]:
    """Normalized (NMOS-like, vds >= 0) current and partial derivatives.

    ``constants`` comes from :func:`device_constants`.  Returns
    ``(id, gm, gds, gmb, veff, vdsat, vth)``.
    """
    # The body-effect threshold and the smooth overdrive are inlined: this
    # runs once per device per Newton iteration, where call overhead shows.
    _, phi, vsb_min, sqrt_phi, vth0, gamma, beta, esat_l, lam = constants
    vsb = -vbs
    vsb_clamped = max(vsb, vsb_min)
    sq = math.sqrt(phi + vsb_clamped)
    vth = vth0 + gamma * (sq - sqrt_phi)
    if vsb > vsb_min:
        dvth_dvsb = gamma / (2.0 * sq)
    else:
        dvth_dvsb = 0.0
    vov = vgs - vth
    root = math.sqrt(vov * vov + _VEFF_DELTA_SQ4)
    veff = 0.5 * (vov + root)
    dveff_dvov = 0.5 * (1.0 + vov / root)

    sat_factor = 1.0 / (1.0 + veff / esat_l)
    dsat_dveff = -sat_factor * sat_factor / esat_l

    t = math.tanh(vds / veff)
    sech2 = 1.0 - t * t
    vdse = veff * t
    dvdse_dvds = sech2
    dvdse_dveff = t - (vds / veff) * sech2

    core = (veff - 0.5 * vdse) * vdse
    dcore_dveff = vdse + (veff - vdse) * dvdse_dveff
    dcore_dvds = (veff - vdse) * dvdse_dvds

    clm = 1.0 + lam * vds
    ids = beta * core * clm * sat_factor

    dids_dveff = beta * clm * (dcore_dveff * sat_factor + core * dsat_dveff)
    gm = dids_dveff * dveff_dvov
    gds = beta * (dcore_dvds * clm * sat_factor + core * lam * sat_factor)
    # d(ids)/d(vbs): raising vbs lowers vsb, lowers vth, raises vov.
    gmb = dids_dveff * dveff_dvov * dvth_dvsb

    gds = max(gds, _GDS_MIN)
    return ids, gm, gds, gmb, veff, veff, vth


def _capacitances(
    params: MosfetParams, w: float, l: float, region: str
) -> tuple[float, float, float, float, float]:
    """Meyer-style capacitances (cgs, cgd, cgb, cdb, csb) for a region."""
    cox_total = params.cox * w * l
    cov = params.cov * w
    cj = params.cj * w * params.ldiff
    if region == "saturation":
        return (2.0 / 3.0) * cox_total + cov, cov, 0.0, cj, cj
    if region == "triode":
        return 0.5 * cox_total + cov, 0.5 * cox_total + cov, 0.0, cj, cj
    return cov, cov, cox_total, cj, cj


def dc_current(
    params: MosfetParams,
    w: float,
    l: float,
    vgs: float,
    vds: float,
    vbs: float = 0.0,
) -> tuple[float, float, float, float]:
    """Terminal drain current and partial derivatives at a bias point.

    Returns ``(ids, gm, gds, gmb)`` where each derivative is the partial of
    the terminal drain current with respect to the *terminal* vgs/vds/vbs.
    Handles PMOS (sign transformation) and reverse mode (vds < 0 after
    normalization) exactly like SPICE.
    """
    return device_current(device_constants(params, w, l), vgs, vds, vbs)


def device_current(
    constants: tuple, vgs: float, vds: float, vbs: float
) -> tuple[float, float, float, float]:
    """:func:`dc_current` of a device whose :func:`device_constants` are known.

    The compiled Newton loops bind the constants once per circuit and call
    this per iterate.
    """
    p = constants[0]
    # Polarity normalization: analyze an equivalent NMOS.
    nvgs, nvds, nvbs = p * vgs, p * vds, p * vbs

    if nvds >= 0.0:
        ids, gm, gds, gmb, _, _, _ = _forward_current(constants, nvgs, nvds, nvbs)
        # d(p*I)/d(p*V) transformation cancels: terminal derivative = normalized.
        return p * ids, gm, gds, gmb
    # Reverse mode: swap drain and source.
    swapped_vgs = nvgs - nvds  # becomes vgd
    swapped_vds = -nvds
    swapped_vbs = nvbs - nvds  # becomes vbd
    ids, gm_s, gds_s, gmb_s, _, _, _ = _forward_current(
        constants, swapped_vgs, swapped_vds, swapped_vbs
    )
    ids_term = -ids
    gm = -gm_s
    gmb = -gmb_s
    gds = gm_s + gds_s + gmb_s
    return p * ids_term, gm, gds, gmb


def operating_point(
    params: MosfetParams,
    w: float,
    l: float,
    vgs: float,
    vds: float,
    vbs: float = 0.0,
) -> MosfetOperatingPoint:
    """Full small-signal operating point (currents, conductances, caps)."""
    p = params.polarity
    nvgs, nvds, nvbs = p * vgs, p * vds, p * vbs
    reverse = nvds < 0.0
    if reverse:
        fvgs, fvds, fvbs = nvgs - nvds, -nvds, nvbs - nvds
    else:
        fvgs, fvds, fvbs = nvgs, nvds, nvbs

    # One forward-model evaluation serves current, derivatives and the
    # threshold: the terminal transformation below is exactly what
    # dc_current applies, so the values are bit-identical to calling it
    # (the model used to be evaluated three times here; hot sizing loops
    # noticed).
    ids, fgm, fgds, fgmb, veff, vdsat, vth = _forward_current(
        device_constants(params, w, l), fvgs, fvds, fvbs
    )
    if reverse:
        gm, gds, gmb = -fgm, fgm + fgds + fgmb, -fgmb
        ids = -ids
    else:
        gm, gds, gmb = fgm, fgds, fgmb

    if fvgs - vth < 0.0:
        region = "cutoff"
    elif fvds < vdsat:
        region = "triode"
    else:
        region = "saturation"

    cgs, cgd, cgb, cdb, csb = _capacitances(params, w, l, region)
    if reverse:
        cgs, cgd = cgd, cgs
        cdb, csb = csb, cdb

    return MosfetOperatingPoint(
        ids=p * ids,
        vgs=vgs,
        vds=vds,
        vbs=vbs,
        vth=vth,
        vov=veff,
        vdsat=vdsat,
        gm=gm,
        gds=gds,
        gmb=gmb,
        cgs=cgs,
        cgd=cgd,
        cgb=cgb,
        cdb=cdb,
        csb=csb,
        region=region,
    )


def thermal_noise_psd(params: MosfetParams, gm: float) -> float:
    """Drain thermal-noise current PSD 4kT*gamma*gm [A^2/Hz]."""
    from repro.constants import KT_ROOM

    return 4.0 * KT_ROOM * params.noise_gamma * abs(gm)


def flicker_noise_psd(
    params: MosfetParams, w: float, l: float, gm: float, frequency_hz: float
) -> float:
    """Drain flicker-noise current PSD kf*gm^2/(Cox*W*L*f) [A^2/Hz]."""
    if frequency_hz <= 0:
        raise ValueError("flicker noise needs a positive frequency")
    return params.kf * gm * gm / (params.cox * w * l * frequency_hz)
