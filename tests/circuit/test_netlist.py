"""Unit tests for the circuit container and elements."""

import pytest

from repro.circuit import (
    Capacitor,
    Circuit,
    CurrentSource,
    Mosfet,
    Resistor,
    Switch,
    VoltageSource,
)
from repro.errors import NetlistError
from repro.tech import CMOS025


def small_circuit() -> Circuit:
    ckt = Circuit("divider")
    ckt.add(VoltageSource("vin", "in", "gnd", dc=3.3))
    ckt.add(Resistor("r1", "in", "out", 1e3))
    ckt.add(Resistor("r2", "out", "gnd", 1e3))
    return ckt


class TestCircuit:
    def test_add_and_lookup(self):
        ckt = small_circuit()
        assert len(ckt) == 3
        assert ckt["r1"].resistance == 1e3
        assert "r2" in ckt

    def test_duplicate_name_rejected(self):
        ckt = small_circuit()
        with pytest.raises(NetlistError, match="duplicate"):
            ckt.add(Resistor("r1", "a", "gnd", 1.0))

    def test_unknown_lookup_raises(self):
        with pytest.raises(NetlistError):
            small_circuit()["nope"]

    def test_remove(self):
        ckt = small_circuit()
        ckt.remove("r2")
        assert "r2" not in ckt
        with pytest.raises(NetlistError):
            ckt.remove("r2")

    def test_replace(self):
        ckt = small_circuit()
        ckt.replace(Resistor("r1", "in", "out", 2e3))
        assert ckt["r1"].resistance == 2e3
        with pytest.raises(NetlistError):
            ckt.replace(Resistor("zzz", "in", "out", 1.0))

    def test_nets_and_non_ground(self):
        ckt = small_circuit()
        assert set(ckt.nets()) == {"in", "out", "gnd"}
        assert ckt.non_ground_nets() == ["in", "out"]

    def test_elements_of(self):
        ckt = small_circuit()
        assert len(ckt.elements_of(Resistor)) == 2
        assert len(ckt.elements_of(VoltageSource)) == 1
        assert ckt.elements_of(Capacitor) == []

    def test_topology_key_ignores_values_tracks_nets(self):
        resized = small_circuit()
        resized.replace(Resistor("r1", "in", "out", 5e3))
        assert resized.topology_key() == small_circuit().topology_key()
        rewired = small_circuit()
        rewired.replace(Resistor("r2", "out", "in", 1e3))
        assert rewired.topology_key() != small_circuit().topology_key()

    def test_validate_passes_on_good_circuit(self):
        small_circuit().validate()

    def test_validate_rejects_empty(self):
        with pytest.raises(NetlistError, match="empty"):
            Circuit("empty").validate()

    def test_validate_rejects_no_ground(self):
        ckt = Circuit("floating")
        ckt.add(Resistor("r1", "a", "b", 1.0))
        with pytest.raises(NetlistError, match="ground"):
            ckt.validate()

    def test_validate_rejects_floating_net(self):
        ckt = small_circuit()
        ckt.add(Capacitor("cstub", "out", "dangling", 1e-12))
        with pytest.raises(NetlistError, match="floating"):
            ckt.validate()


class TestElements:
    def test_negative_resistance_rejected(self):
        with pytest.raises(NetlistError):
            Resistor("r", "a", "b", -5.0)

    def test_zero_capacitance_rejected(self):
        with pytest.raises(NetlistError):
            Capacitor("c", "a", "b", 0.0)

    def test_empty_name_rejected(self):
        with pytest.raises(NetlistError):
            Resistor("", "a", "b", 1.0)

    def test_source_waveform(self):
        src = VoltageSource("v", "a", "gnd", dc=1.0, waveform=lambda t: 2.0 * t)
        assert src.value_at(0.5) == 1.0
        static = VoltageSource("v2", "a", "gnd", dc=1.0)
        assert static.value_at(123.0) == 1.0

    def test_current_source_waveform(self):
        src = CurrentSource("i", "a", "gnd", dc=1e-3, waveform=lambda t: 5e-3)
        assert src.value_at(0.0) == 5e-3

    def test_mosfet_validation(self):
        with pytest.raises(NetlistError):
            Mosfet("m", "d", "g", "s", "b", CMOS025.nmos, w=-1e-6, l=1e-6)
        with pytest.raises(NetlistError):
            Mosfet("m", "d", "g", "s", "b", CMOS025.nmos, w=1e-6, l=1e-6, mult=0)

    def test_switch_resistance_states(self):
        sw = Switch("s", "a", "b", phase=lambda t: t < 1.0, r_on=10.0, r_off=1e9)
        assert sw.resistance_at(0.5) == 10.0
        assert sw.resistance_at(2.0) == 1e9

    def test_mosfet_nodes_order(self):
        m = Mosfet("m", "d", "g", "s", "b", CMOS025.nmos, w=1e-6, l=0.25e-6)
        assert m.nodes == ("d", "g", "s", "b")
