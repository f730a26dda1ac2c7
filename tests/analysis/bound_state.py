"""Every value a bind fills in a bound stamp program, in comparable form.

``tests/synth/test_binder.py`` and the ``bind`` stage of
``benchmarks/run_all.py`` compare the program an evaluator writes each
candidate's values into against a fresh bind of the candidate's netlist.
Arrays are taken by their bytes (the sign of every zero included) and
tuples by their ``repr``, which round-trips every float exactly.
"""

from __future__ import annotations

#: Names of a bound program's value buffers, in ``BoundMna._buffers`` order.
BUFFERS = ("jv", "c", "vdc", "inj_dc", "vg_gain", "gv", "cv")


def bound_state(bound) -> dict[str, object]:
    """The constant slots, device tuples and geometry of ``bound``.

    The constant slots are the positions the template's value-slot table
    and its unit and zero stamps name in each buffer.  The MOSFET slots of
    the jacobian and the small-signal matrices are left out: every
    jacobian and linearization refills them.  So are the affine offsets
    ``e`` and injections ``inj``, which the next residual refills from
    ``vdc``, ``inj_dc`` and its source scale.
    """
    t = bound.template
    positions = [[] for _ in BUFFERS]
    for _, targets in t.slots:
        for buf, pos, _ in targets:
            positions[buf].append(pos)
    for buf, pos, _ in t._constants:
        positions[buf].append(pos)
    state = {
        name: buffer[sorted(at)].tobytes()
        for name, buffer, at in zip(BUFFERS, bound._buffers, positions)
    }
    state.update(
        b_ac=bound._b_ac.tobytes(),
        devices=repr(bound._devices),
        geometry=repr(bound._geometry),
    )
    return state
