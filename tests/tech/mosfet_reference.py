"""The compact MOSFET model as it was before its constants were hoisted.

A verbatim copy of ``_forward_current``, ``_capacitances``, ``dc_current``
and ``operating_point`` from :mod:`repro.tech.mosfet` before the per-device
constants moved into :func:`repro.tech.mosfet.device_constants`.  The DC and
transient oracles call the package's own model, so they cannot see a change
to it; ``tests/tech/test_mosfet_reference.py`` holds the package's model to
this copy bit for bit.
"""

from __future__ import annotations

import math

from repro.tech.mosfet import MosfetOperatingPoint
from repro.tech.process import MosfetParams

#: Smoothing width for the cutoff transition [V].
_VEFF_DELTA = 5e-3
#: Minimum off conductance to keep Jacobians non-singular [S].
_GDS_MIN = 1e-12


def _forward_current(
    params: MosfetParams, w: float, l: float, vgs: float, vds: float, vbs: float
) -> tuple[float, float, float, float, float, float]:
    """Normalized (NMOS-like, vds >= 0) current and partial derivatives.

    Returns ``(id, gm, gds, gmb, veff, vdsat, vth)``.
    """
    # _threshold and _veff, inlined: this function runs once per device per
    # Newton iteration, where the call overhead alone was measurable.
    vsb = -vbs
    vsb_clamped = max(vsb, -params.phi + 0.05)
    sq = math.sqrt(params.phi + vsb_clamped)
    vth = params.vth0 + params.gamma * (sq - math.sqrt(params.phi))
    if vsb > -params.phi + 0.05:
        dvth_dvsb = params.gamma / (2.0 * sq)
    else:
        dvth_dvsb = 0.0
    vov = vgs - vth
    root = math.sqrt(vov * vov + 4.0 * _VEFF_DELTA * _VEFF_DELTA)
    veff = 0.5 * (vov + root)
    dveff_dvov = 0.5 * (1.0 + vov / root)

    beta = params.kp * (w / l)
    esat_l = params.esat * l
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

    clm = 1.0 + (params.lambda_l / l) * vds
    ids = beta * core * clm * sat_factor

    dids_dveff = beta * clm * (dcore_dveff * sat_factor + core * dsat_dveff)
    gm = dids_dveff * dveff_dvov
    gds = beta * (dcore_dvds * clm * sat_factor + core * (params.lambda_l / l) * sat_factor)
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
    p = params.polarity
    # Polarity normalization: analyze an equivalent NMOS.
    nvgs, nvds, nvbs = p * vgs, p * vds, p * vbs

    if nvds >= 0.0:
        ids, gm, gds, gmb, _, _, _ = _forward_current(params, w, l, nvgs, nvds, nvbs)
        # d(p*I)/d(p*V) transformation cancels: terminal derivative = normalized.
        return p * ids, gm, gds, gmb
    # Reverse mode: swap drain and source.
    swapped_vgs = nvgs - nvds  # becomes vgd
    swapped_vds = -nvds
    swapped_vbs = nvbs - nvds  # becomes vbd
    ids, gm_s, gds_s, gmb_s, _, _, _ = _forward_current(
        params, w, l, swapped_vgs, swapped_vds, swapped_vbs
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
        params, w, l, fvgs, fvds, fvbs
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
