"""The :class:`Circuit` container: a named set of elements over string nets."""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterator

from repro.circuit.elements import Element
from repro.errors import NetlistError

#: Net names treated as the global reference node.
GROUND_NAMES = frozenset({"0", "gnd", "GND"})


class Circuit:
    """A flat netlist: elements connected by string-named nets.

    Nets are created implicitly by referencing them from an element.  Names
    in :data:`GROUND_NAMES` are the reference node and are excluded from the
    unknowns of any analysis.
    """

    def __init__(self, name: str = "circuit"):
        if not name:
            raise NetlistError("circuit name must be non-empty")
        self.name = name
        self._elements: dict[str, Element] = {}
        self._topology_key: tuple | None = None

    # -- construction -----------------------------------------------------------

    def add(self, element: Element) -> Element:
        """Add an element; names must be unique within the circuit."""
        if element.name in self._elements:
            raise NetlistError(
                f"duplicate element name {element.name!r} in circuit {self.name!r}"
            )
        self._elements[element.name] = element
        self._topology_key = None
        return element

    def extend(self, elements: Iterator[Element] | list[Element]) -> None:
        """Add several elements."""
        for element in elements:
            self.add(element)

    def remove(self, name: str) -> Element:
        """Remove and return the element called ``name``."""
        try:
            element = self._elements.pop(name)
        except KeyError:
            raise NetlistError(f"no element named {name!r}") from None
        self._topology_key = None
        return element

    def replace(self, element: Element) -> Element:
        """Replace the element with the same name (must exist)."""
        if element.name not in self._elements:
            raise NetlistError(f"no element named {element.name!r} to replace")
        self._elements[element.name] = element
        self._topology_key = None
        return element

    def topology_key(self) -> tuple:
        """Hashable structural identity: element classes, names and nets.

        Two circuits with equal keys have identical MNA layouts and stamp
        *structure* — they may differ only in element values (resistances,
        device geometry, source levels).  This is what the compiled stamp
        templates in :mod:`repro.analysis.template`, each with its
        topology's one layout, key on: a sizing loop rebuilds the same
        testbench topology hundreds of times with new values, and the key
        lets every rebuild reuse the structural work.
        """
        if self._topology_key is None:
            self._topology_key = tuple(
                (type(e).__name__, e.name, e.nodes)
                for e in self._elements.values()
            )
        return self._topology_key

    # -- inspection ----------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[Element]:
        return iter(self._elements.values())

    def __contains__(self, name: str) -> bool:
        return name in self._elements

    def __getitem__(self, name: str) -> Element:
        try:
            return self._elements[name]
        except KeyError:
            raise NetlistError(f"no element named {name!r}") from None

    @property
    def elements(self) -> tuple[Element, ...]:
        """All elements in insertion order."""
        return tuple(self._elements.values())

    def nets(self) -> list[str]:
        """All net names (including ground aliases), sorted, in the circuit."""
        seen: set[str] = set()
        for element in self._elements.values():
            seen.update(element.nodes)
        return sorted(seen)

    def non_ground_nets(self) -> list[str]:
        """Nets that are analysis unknowns, in deterministic order."""
        return [n for n in self.nets() if n not in GROUND_NAMES]

    def elements_of(self, element_type: type) -> list[Element]:
        """All elements of (a subclass of) the given type."""
        return [e for e in self._elements.values() if isinstance(e, element_type)]

    def validate(self) -> None:
        """Sanity-check the netlist; raises :class:`NetlistError` on problems.

        Checks that a ground reference exists and that no net is touched by a
        single terminal only (floating net), which would make MNA singular.
        """
        if not self._elements:
            raise NetlistError(f"circuit {self.name!r} is empty")
        nets = self.nets()
        if not any(n in GROUND_NAMES for n in nets):
            raise NetlistError(f"circuit {self.name!r} has no ground reference")
        terminal_counts: dict[str, int] = defaultdict(int)
        for element in self._elements.values():
            for net in element.nodes:
                terminal_counts[net] += 1
        floating = [
            net
            for net, count in terminal_counts.items()
            if count < 2 and net not in GROUND_NAMES
        ]
        if floating:
            raise NetlistError(
                f"circuit {self.name!r} has floating nets: {sorted(floating)}"
            )

    def __repr__(self) -> str:
        return f"Circuit({self.name!r}, {len(self)} elements, {len(self.nets())} nets)"
