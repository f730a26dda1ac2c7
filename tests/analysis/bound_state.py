"""Every value a bind fills in a bound stamp program, in comparable form.

``tests/synth/test_binder.py`` and the ``bind`` stage of
``benchmarks/run_all.py`` compare the program an evaluator writes each
candidate's values into against a fresh bind of the candidate's netlist.
Arrays are taken by their bytes (the sign of every zero included) and
tuples by their ``repr``, which round-trips every float exactly.
"""

from __future__ import annotations


def bound_state(bound) -> dict[str, object]:
    """The constant slots, device tuples and geometry of ``bound``.

    The MOSFET slots of the jacobian and the small-signal matrices are
    left out: every jacobian and linearization refills them.  So are the
    affine offsets ``e`` and injections ``inj``, which the next residual
    refills from ``vdc``, ``inj_dc`` and its source scale.
    """
    t = bound.template
    return {
        "jv": bound._jv[t._j_const_pos].tobytes(),
        "c": bound._fused.c.tobytes(),
        "vdc": bound._vdc.tobytes(),
        "inj_dc": bound._inj_dc.tobytes(),
        "vg_gain": bound._vg_gain.tobytes(),
        "gv": bound._gv[t._g_const_pos].tobytes(),
        "cv": bound._cv[t._c_const_pos].tobytes(),
        "b_ac": bound._b_ac.tobytes(),
        "devices": repr(bound._devices),
        "geometry": repr(bound._geometry),
    }
