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
from dataclasses import dataclass, fields

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


def capacitance_constants(
    params: MosfetParams, w: float, l: float
) -> tuple[float, float, float]:
    """``(cox * w * l, cov * w, cj * w * ldiff)``: what the Meyer caps scale."""
    return params.cox * w * l, params.cov * w, params.cj * w * params.ldiff


#: ``4 * delta**2`` of the smooth overdrive, in the model's evaluation order.
_VEFF_DELTA_SQ4 = 4.0 * _VEFF_DELTA * _VEFF_DELTA


def device_currents(
    devices: list[tuple],
    xl: list[float],
    detail: list | None = None,
    nan_forward: bool = False,
) -> tuple[list[float], list[float]]:
    """Drain currents and conductances of every device at the voltages ``xl``.

    This loop is the one copy of the model equations.  Each device is one
    flat tuple, its :func:`device_constants` followed by ``(mult, d, g, s,
    b)``: the multiplier and the indices of its drain, gate, source and
    bulk voltages in ``xl`` (Python floats, on which ``+ - * /``, ``sqrt``
    and ``tanh`` give the same bits as on ``np.float64`` at a fraction of
    the cost).  Returns the terminal drain currents and, per device,
    ``(gm, gds, gmb, gm + gds + gmb)`` flattened, all scaled by ``mult``;
    each derivative is the partial of the terminal drain current with
    respect to the terminal vgs/vds/vbs.

    A PMOS device is analyzed as the equivalent NMOS (polarity
    normalization), and a device whose normalized vds is negative with
    drain and source swapped (reverse mode), as in SPICE.  With ``detail``
    a list, each device also appends its forward-frame ``(vgs, vds, veff,
    vth, reverse)``, what :class:`DeviceArrays` reads.  A NaN vds runs
    reversed, as the Newton residual has always run it; ``nan_forward``
    keeps it forward, as an operating point does (every current and
    conductance is NaN either way, with the other sign).
    """
    sqrt = math.sqrt
    tanh = math.tanh
    ids = []
    cond = []
    for device in devices:
        p, phi, vsb_min, sqrt_phi, vth0, gamma, beta, esat_l, lam, mult, d, g, s, b = device
        xs = xl[s]
        vgs = p * (xl[g] - xs)
        vds = p * (xl[d] - xs)
        vbs = p * (xl[b] - xs)
        reverse = not vds >= 0.0 and (vds < 0.0 or not nan_forward)
        if reverse:
            # Swap drain and source: vgs becomes vgd, vbs becomes vbd.
            vgs -= vds
            vbs -= vds
            vds = -vds

        # The forward model (NMOS-like, vds >= 0).
        vsb = -vbs
        sq = sqrt(phi + (vsb_min if vsb_min > vsb else vsb))
        vth = vth0 + gamma * (sq - sqrt_phi)
        if vsb > vsb_min:
            dvth_dvsb = gamma / (2.0 * sq)
        else:
            dvth_dvsb = 0.0
        vov = vgs - vth
        root = sqrt(vov * vov + _VEFF_DELTA_SQ4)
        veff = 0.5 * (vov + root)
        dveff_dvov = 0.5 * (1.0 + vov / root)

        sat_factor = 1.0 / (1.0 + veff / esat_l)
        dsat_dveff = -sat_factor * sat_factor / esat_l

        t = tanh(vds / veff)
        sech2 = 1.0 - t * t
        vdse = veff * t
        dvdse_dvds = sech2
        dvdse_dveff = t - (vds / veff) * sech2

        core = (veff - 0.5 * vdse) * vdse
        dcore_dveff = vdse + (veff - vdse) * dvdse_dveff
        dcore_dvds = (veff - vdse) * dvdse_dvds

        clm = 1.0 + lam * vds
        i = beta * core * clm * sat_factor

        dids_dveff = beta * clm * (dcore_dveff * sat_factor + core * dsat_dveff)
        gm = dids_dveff * dveff_dvov
        gds = beta * (dcore_dvds * clm * sat_factor + core * lam * sat_factor)
        # d(ids)/d(vbs): raising vbs lowers vsb, lowers vth, raises vov.
        gmb = dids_dveff * dveff_dvov * dvth_dvsb
        if gds < _GDS_MIN:
            gds = _GDS_MIN

        if detail is not None:
            detail.append((vgs, vds, veff, vth, reverse))
        if reverse:
            i = -i
            gm, gds, gmb = -gm, gm + gds + gmb, -gmb
        # d(p*I)/d(p*V) cancels: the terminal derivatives are the normalized.
        i = p * i
        # Multiplying by a mult of 1 would return each operand bit for bit.
        if mult != 1:
            i *= mult
            gm *= mult
            gds *= mult
            gmb *= mult
        ids.append(i)
        cond += (gm, gds, gmb, gm + gds + gmb)
    return ids, cond


#: The field names of :class:`MosfetOperatingPoint`, in order.
_OP_FIELDS = tuple(f.name for f in fields(MosfetOperatingPoint))


def meyer_capacitances(
    detail: list[tuple], caps: list[tuple[float, float, float]]
) -> tuple[list[str], list[float]]:
    """Each device's region and its Meyer-style capacitances.

    ``detail`` holds each device's forward-frame ``(vgs, vds, veff, vth,
    reverse)`` from :func:`device_currents` and ``caps`` its
    :func:`capacitance_constants`.  Returns the regions ('cutoff',
    'triode' or 'saturation') and, per device, ``(cgs, cgd, cgb, cdb,
    csb)`` flattened.  This loop is the one copy of the region and
    capacitance equations.
    """
    regions = []
    values = []
    for (vgs, vds, veff, vth, reverse), (cox_total, cov, cj) in zip(detail, caps):
        if vgs - vth < 0.0:
            region = "cutoff"
            cgs, cgd, cgb = cov, cov, cox_total
        elif vds < veff:
            region = "triode"
            cgs, cgd, cgb = 0.5 * cox_total + cov, 0.5 * cox_total + cov, 0.0
        else:
            region = "saturation"
            cgs, cgd, cgb = (2.0 / 3.0) * cox_total + cov, cov, 0.0
        if reverse:
            # Drain and source swap back; cdb and csb are both cj.
            cgs, cgd = cgd, cgs
        regions.append(region)
        values += (cgs, cgd, cgb, cj, cj)
    return regions, values


class DeviceArrays:
    """Every device of a circuit at one solution, as plain lists.

    ``terminals`` holds each device's ``(d, g, s, b)`` indices in the
    solution's voltage list; ``ids``, ``cond`` and ``detail`` are one
    :func:`device_currents` evaluation at the solution, and ``caps`` holds
    each device's :func:`capacitance_constants`, all at each device's
    multiplied width.  An analysis reads them as they are; :meth:`points`
    builds the :class:`MosfetOperatingPoint` objects from them.
    """

    __slots__ = ("terminals", "ids", "cond", "detail", "caps", "_meyer")

    def __init__(self, terminals, ids, cond, detail, caps):
        self.terminals = terminals
        self.ids = ids
        self.cond = cond
        self.detail = detail
        self.caps = caps
        self._meyer: tuple[list[str], list[float]] | None = None

    def meyer(self) -> tuple[list[str], list[float]]:
        """:func:`meyer_capacitances` of these devices, worked out once."""
        if self._meyer is None:
            self._meyer = meyer_capacitances(self.detail, self.caps)
        return self._meyer

    def points(self, xl: list[float]) -> list[MosfetOperatingPoint]:
        """Every device's operating point; ``xl`` is the solution's voltages.

        The points are built without the frozen dataclass's per-field
        ``__init__``: one ``__dict__`` update in field order gives the same
        type, fields, equality and pickle bytes.
        """
        regions, capacitances = self.meyer()
        cond = self.cond
        new = object.__new__
        points = []
        for k, ((d, g, s, b), i, (_, _, veff, vth, _), region) in enumerate(
            zip(self.terminals, self.ids, self.detail, regions)
        ):
            xs = xl[s]
            j = 4 * k
            cgs, cgd, cgb, cdb, csb = capacitances[5 * k : 5 * k + 5]
            point = new(MosfetOperatingPoint)
            point.__dict__.update(
                zip(
                    _OP_FIELDS,
                    (
                        i, xl[g] - xs, xl[d] - xs, xl[b] - xs, vth, veff, veff,
                        cond[j], cond[j + 1], cond[j + 2],
                        cgs, cgd, cgb, cdb, csb, region,
                    ),
                )
            )
            points.append(point)
        return points


#: ``(mult, d, g, s, b)`` of a lone device at ``xl = [vds, vgs, vbs, 0.0]``.
_LONE = (1, 0, 1, 3, 2)


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
    """:func:`dc_current` of a device whose :func:`device_constants` are known."""
    (i_d,), (gm, gds, gmb, _) = device_currents(
        [constants + _LONE], [vds, vgs, vbs, 0.0]
    )
    return i_d, gm, gds, gmb


def operating_point(
    params: MosfetParams,
    w: float,
    l: float,
    vgs: float,
    vds: float,
    vbs: float = 0.0,
) -> MosfetOperatingPoint:
    """Full small-signal operating point (currents, conductances, caps)."""
    xl = [vds, vgs, vbs, 0.0]
    detail = []
    ids, cond = device_currents(
        [device_constants(params, w, l) + _LONE], xl, detail, nan_forward=True
    )
    caps = [capacitance_constants(params, w, l)]
    (point,) = DeviceArrays([_LONE[1:]], ids, cond, detail, caps).points(xl)
    return point


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
