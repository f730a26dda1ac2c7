"""Count the planning and record serialization one campaign does.

:func:`campaign_traffic` wraps :func:`repro.specs.stage.plan_stages` in
every loaded ``repro`` module that holds it, and the ``json`` module as
:mod:`repro.campaign.store` sees it (every record line is one
``json.dumps`` call there).  The counts do not depend on how the code
avoids repeating work, so they read the same way on any version of it.
``benchmarks/run_all.py`` uses it for its ``warm_rerun`` stage.
"""

from __future__ import annotations

import contextlib
import json
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Iterator
from unittest import mock

import repro.campaign.store as store
from repro.specs import stage


@dataclass
class Traffic:
    """What the wrapped functions saw while the context was open."""

    #: ``(spec, candidate)`` of every ``plan_stages`` call, in call order.
    plans: list[tuple[Any, Any]] = field(default_factory=list)
    #: Record lines encoded.
    serializations: int = 0

    @property
    def distinct_pairs(self) -> int:
        """How many different ``(spec, candidate)`` pairs were planned."""
        return len(set(self.plans))

    def replanned(self) -> list[tuple[Any, Any]]:
        """The pairs planned more than once."""
        return [pair for pair, n in Counter(self.plans).items() if n > 1]


class _CountingJson:
    """The ``json`` module, counting its ``dumps`` calls."""

    def __init__(self, traffic: Traffic) -> None:
        self._traffic = traffic

    def dumps(self, *args: Any, **kwargs: Any) -> str:
        self._traffic.serializations += 1
        return json.dumps(*args, **kwargs)

    def __getattr__(self, name: str) -> Any:
        return getattr(json, name)


@contextlib.contextmanager
def campaign_traffic() -> Iterator[Traffic]:
    """Count ``plan_stages`` calls and record serializations in the block."""
    traffic = Traffic()
    original = stage.plan_stages

    def plan_stages(spec, candidate, *args, **kwargs):
        traffic.plans.append((spec, candidate))
        return original(spec, candidate, *args, **kwargs)

    holders = [
        module
        for name, module in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro."))
        and getattr(module, "plan_stages", None) is original
    ]
    with contextlib.ExitStack() as stack:
        for module in holders:
            stack.enter_context(mock.patch.object(module, "plan_stages", plan_stages))
        stack.enter_context(mock.patch.object(store, "json", _CountingJson(traffic)))
        yield traffic
