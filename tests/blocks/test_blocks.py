"""Block-level tests: opamps, MDAC network, sub-ADC, S/H."""

import numpy as np
import pytest

from repro.analysis import ac_transfer, linearize, solve_dc
from repro.blocks import (
    FlashSubAdc,
    MdacNetwork,
    SampleAndHold,
    TwoStageSizing,
    build_settling_bench,
    build_two_stage_miller,
)
from repro.blocks.comparator import BehavioralComparator
from repro.blocks.opamp import FoldedCascodeSizing
from repro.blocks.opamp_library import build_folded_cascode, two_stage_miller_values
from repro.circuit.builder import CircuitBuilder
from repro.circuit.elements import Capacitor, CurrentSource, Mosfet, Resistor
from repro.circuit.netlist import Circuit
from repro.enumeration.candidates import PipelineCandidate
from repro.errors import SpecificationError
from repro.specs import AdcSpec, plan_stages
from repro.tech import CMOS025


def biased_two_stage(sizing=None):
    """Two-stage amp in its unity-feedback bias testbench."""
    amp = build_two_stage_miller(CMOS025, sizing or TwoStageSizing())
    bench = Circuit("tb2")
    for e in amp:
        bench.add(e)
    b = CircuitBuilder("tb", tech=CMOS025)
    b.v("vdd", "gnd", dc=3.3, name="vdd_src")
    b.v("inp", "gnd", dc=1.485, ac=1.0, name="vin_src")
    b.r("out", "inm", 1e9, name="rfb")
    b.c("inm", "gnd", 1e-6, name="cfb")
    b.c("out", "gnd", 0.5e-12, name="cl")
    for e in b.circuit:
        bench.add(e)
    guess = {"vdd": 3.3, "inp": 1.485, "inm": 1.485, "out": 1.485,
             "o1": 2.4, "x": 2.4, "nbias": 0.8, "tail": 0.5, "nz": 1.485}
    return bench, solve_dc(bench, initial_guess=guess)


class TestTwoStageOpamp:
    def test_all_signal_devices_saturated(self):
        _, op = biased_two_stage()
        for name in ("m1", "m2", "m3", "m4", "m6", "m7", "mtail"):
            assert op.device_ops[name].region == "saturation", name

    def test_dc_gain_is_large(self):
        bench, op = biased_two_stage()
        lin = linearize(bench, op, include_noise=False)
        a0 = abs(ac_transfer(lin, "out", np.array([1e2]))[0])
        assert a0 > 500

    def test_output_self_biases_near_input_cm(self):
        _, op = biased_two_stage()
        assert op.voltages["out"] == pytest.approx(1.485, abs=0.05)

    def test_gain_rolls_off(self):
        bench, op = biased_two_stage()
        lin = linearize(bench, op, include_noise=False)
        mags = np.abs(ac_transfer(lin, "out", np.array([1e3, 1e8])))
        assert mags[1] < mags[0] / 10

    def test_folded_cascode_biases(self):
        amp = build_folded_cascode(CMOS025, FoldedCascodeSizing())
        bench = Circuit("tbfc")
        for e in amp:
            bench.add(e)
        b = CircuitBuilder("tb", tech=CMOS025)
        b.v("vdd", "gnd", dc=3.3, name="vdd_src")
        b.v("inp", "gnd", dc=1.4, ac=1.0, name="vin_src")
        b.r("out", "inm", 1e9, name="rfb")
        b.c("inm", "gnd", 1e-6, name="cfb")
        b.c("out", "gnd", 0.5e-12, name="cl")
        for e in b.circuit:
            bench.add(e)
        op = solve_dc(bench, initial_guess={"vdd": 3.3, "inp": 1.4, "inm": 1.4,
                                            "out": 1.4, "tail": 0.6})
        # Input pair carries roughly half the tail current each.
        i1 = op.device_ops["m1"].ids
        i2 = op.device_ops["m2"].ids
        assert i1 == pytest.approx(i2, rel=0.2)
        assert i1 + i2 == pytest.approx(FoldedCascodeSizing().i_tail, rel=0.3)


class TestSizingValues:
    def test_builder_elements_carry_the_values(self):
        sizing = TwoStageSizing(w_input=31e-6, stage2_ratio=1.7, c_comp=0.8e-12)
        amp = build_two_stage_miller(CMOS025, sizing)
        values = two_stage_miller_values(CMOS025, sizing)
        assert len(values) == len(amp)
        for element, value in zip(amp, values):
            if isinstance(element, Mosfet):
                assert (element.w, element.l) == value
            elif isinstance(element, CurrentSource):
                assert element.dc == value
            elif isinstance(element, Resistor):
                assert element.resistance == value
            else:
                assert isinstance(element, Capacitor)
                assert element.capacitance == value

    @pytest.mark.parametrize("cls", [TwoStageSizing, FoldedCascodeSizing])
    @pytest.mark.parametrize("bad", [float("nan"), 0.0, -1e-6])
    def test_sizing_refuses_nan_and_non_positive_fields(self, cls, bad):
        with pytest.raises(
            SpecificationError, match=rf"^{cls.__name__}\.w_input must be positive$"
        ):
            cls(w_input=bad)


class TestMdacNetwork:
    def spec(self):
        plan = plan_stages(AdcSpec(resolution_bits=13), PipelineCandidate((4, 3, 2), 13, 7))
        return plan.mdacs[0]

    def test_from_spec_round_trips_beta_and_gain(self):
        mdac = self.spec()
        network = MdacNetwork.from_spec(mdac)
        assert network.gain == pytest.approx(mdac.gain)
        assert network.beta == pytest.approx(mdac.beta, rel=1e-9)

    def test_c_eff_matches_spec(self):
        mdac = self.spec()
        network = MdacNetwork.from_spec(mdac)
        assert network.c_eff == pytest.approx(mdac.c_eff, rel=0.02)

    def test_settling_bench_settles_to_ideal(self):
        # With a near-ideal (well-sized) opamp the bench must settle to
        # -Cs/Cf * step within tight tolerance.
        from repro.analysis import simulate_transient

        network = MdacNetwork(cs=200e-15, cf=200e-15, c_in=40e-15, c_load=300e-15)
        amp = build_two_stage_miller(CMOS025, TwoStageSizing())
        bench, ideal = build_settling_bench(
            amp, network, CMOS025, step_voltage=-0.5, common_mode=1.485
        )
        result = simulate_transient(bench, t_stop=26e-9, dt=0.05e-9, record=["out"])
        v = result.voltage("out")
        start = float(v[np.searchsorted(result.time, 1e-9) - 1])
        settled = float(v[-1]) - start
        assert ideal == pytest.approx(0.5)
        assert settled == pytest.approx(ideal, rel=5e-3)


def residue_transfer(
    code: int, stage_bits: int, vin: float, full_scale: float, gain_error: float = 0.0
) -> float:
    """Ideal (or gain-errored) MDAC residue: G*vin - code-dependent DAC level.

    ``code`` is the sub-ADC decision in ``[0, 2^m - 2]`` (the redundant
    coding with 2^m - 1 levels); ``vin`` and the result are differential
    voltages centred on zero with range ``[-FS/2, +FS/2]``.  The residue is

    ``vout = 2^(m-1) * vin - (code - (levels-1)/2) * FS/2``

    which for a 1.5-bit stage reduces to the classic ``2 vin - d FS/2``,
    ``d in {-1, 0, +1}``.  The behavioral pipeline computes its residues
    itself; this scalar form is the reference these tests hold the sub-ADC
    codes against.
    """
    levels = 2**stage_bits - 1
    if not 0 <= code < levels:
        raise SpecificationError(f"code {code} out of range for {stage_bits}-bit stage")
    gain = 2.0 ** (stage_bits - 1) * (1.0 + gain_error)
    dac_index = code - (levels - 1) / 2.0
    return gain * vin - dac_index * full_scale / 2.0


class TestResidueTransfer:
    def test_1p5_bit_cases(self):
        # 1.5-bit: residue = 2 vin - d * FS/2, d in {-1, 0, 1}.
        assert residue_transfer(0, 2, -0.4, 2.0) == pytest.approx(-0.8 + 1.0)
        assert residue_transfer(1, 2, 0.1, 2.0) == pytest.approx(0.2)
        assert residue_transfer(2, 2, 0.4, 2.0) == pytest.approx(0.8 - 1.0)

    def test_residue_stays_in_range_with_ideal_codes(self):
        sub = FlashSubAdc(3, 2.0)
        for vin in np.linspace(-0.99, 0.99, 101):
            code = sub.quantize(vin)
            r = residue_transfer(code, 3, vin, 2.0)
            assert abs(r) <= 1.0 + 1e-9

    def test_bad_code_rejected(self):
        with pytest.raises(SpecificationError):
            residue_transfer(7, 3, 0.0, 2.0)


class TestSubAdc:
    def test_comparator_count(self):
        assert len(FlashSubAdc(2, 2.0).comparators) == 2
        assert len(FlashSubAdc(4, 2.0).comparators) == 14

    def test_thresholds_symmetric(self):
        th = FlashSubAdc(3, 2.0).ideal_thresholds()
        assert th == pytest.approx([-t for t in reversed(th)])

    def test_quantize_monotone(self):
        sub = FlashSubAdc(3, 2.0)
        codes = [sub.quantize(v) for v in np.linspace(-1, 1, 41)]
        assert codes == sorted(codes)
        assert min(codes) == 0 and max(codes) == 6

    def test_offsets_change_decisions(self):
        plain = FlashSubAdc(2, 2.0)
        shifted = FlashSubAdc.with_offsets(2, 2.0, [0.3, 0.3])
        v = -0.27  # just below the ideal -FS/8 threshold
        assert plain.quantize(v) != shifted.quantize(v)

    def test_wrong_offset_count_rejected(self):
        with pytest.raises(SpecificationError):
            FlashSubAdc.with_offsets(3, 2.0, [0.0])


class TestSampleAndHoldAndComparator:
    def test_sah_gain_error(self):
        assert SampleAndHold(gain_error=0.01).sample(1.0) == pytest.approx(1.01)

    def test_sah_noise_requires_rng(self):
        with pytest.raises(ValueError):
            SampleAndHold(noise_rms=1e-3).sample(1.0)

    def test_comparator_offset(self):
        comp = BehavioralComparator(threshold=0.0, offset=0.1)
        assert comp.decide(-0.05)  # offset pushes it over
        assert not comp.decide(-0.2)
