"""Strategy tests for the windowing layer.

The default ``greedy`` strategy must be byte-identical to the pre-strategy
``extract_windows`` (frozen here as a reference reimplementation of its
partition loop); the ``hardness`` (min-cut seeded) strategy must always
produce a valid levelized partition under the same bounds.
"""

from pathlib import Path

import pytest

from repro.netlist import standard_cell_library
from repro.netlist.blif import read_blif
from repro.netlist.window import (
    LevelizedGreedy,
    MinCutSeeded,
    WindowError,
    extract_windows,
    resolve_windowing,
)

WIDE30 = Path(__file__).resolve().parents[2] / "examples" / "circuits" / "wide30.blif"

_CONST_NETS = ("$false", "$true")


def _legacy_member_lists(netlist, max_inputs, max_instances):
    """The pre-strategy greedy partition loop, frozen as a reference."""
    order = netlist.topological_order()
    available = set(netlist.primary_inputs) | set(_CONST_NETS)
    remaining = list(order)
    member_lists = []
    while remaining:
        members = []
        member_outputs = set()
        boundary = set()
        leftover = []
        for instance in remaining:
            if len(members) >= max_instances:
                leftover.append(instance)
                continue
            inputs = set(instance.inputs)
            if not inputs <= (available | member_outputs):
                leftover.append(instance)
                continue
            external = {
                net
                for net in inputs
                if net not in member_outputs and net not in _CONST_NETS
            }
            if len(boundary | external) > max_inputs:
                leftover.append(instance)
                continue
            members.append(instance.name)
            member_outputs.add(instance.output)
            boundary |= external
        assert members, "legacy reference loop failed to make progress"
        member_lists.append(members)
        available |= member_outputs
        remaining = leftover
    return member_lists


def _wide30(library):
    with open(WIDE30, "r", encoding="utf-8") as handle:
        return read_blif(handle.read(), library)


class TestGreedyByteIdentity:
    @pytest.mark.parametrize("seed", [3, 7, 19])
    def test_default_matches_legacy_on_random_netlists(
        self, seed, make_random_netlist
    ):
        netlist = make_random_netlist(seed, num_inputs=10, num_cells=60)
        legacy = _legacy_member_lists(netlist, 6, 16)
        windows = extract_windows(netlist, max_inputs=6, max_instances=16)
        assert [list(w.instance_names) for w in windows] == legacy

    def test_default_matches_legacy_on_wide30(self, library):
        netlist = _wide30(library)
        legacy = _legacy_member_lists(netlist, 6, 48)
        windows = extract_windows(netlist, max_inputs=6)
        assert [list(w.instance_names) for w in windows] == legacy

    def test_explicit_greedy_identical_to_default(self, library):
        netlist = _wide30(library)
        default = extract_windows(netlist, max_inputs=6)
        explicit = extract_windows(netlist, max_inputs=6, strategy="greedy")
        instance = extract_windows(
            netlist, max_inputs=6, strategy=LevelizedGreedy()
        )
        assert default == explicit == instance


class TestMinCutSeeded:
    def test_partition_valid_on_wide30(self, library):
        netlist = _wide30(library)
        windows = extract_windows(netlist, max_inputs=6, strategy="hardness")
        # _validate_partition already ran inside extract_windows; spot-check
        # the bounds and totality here.
        names = sorted(
            name for window in windows for name in window.instance_names
        )
        assert names == sorted(i.name for i in netlist.topological_order())
        assert all(window.num_inputs <= 6 for window in windows)

    @pytest.mark.parametrize("seed", [3, 7, 19])
    def test_partition_valid_on_random_netlists(self, seed, make_random_netlist):
        netlist = make_random_netlist(seed, num_inputs=10, num_cells=60)
        windows = extract_windows(
            netlist, max_inputs=6, max_instances=16, strategy="hardness"
        )
        names = sorted(
            name for window in windows for name in window.instance_names
        )
        assert names == sorted(i.name for i in netlist.topological_order())
        assert all(window.num_instances <= 16 for window in windows)

    def test_deterministic(self, library):
        netlist = _wide30(library)
        first = extract_windows(netlist, max_inputs=6, strategy="hardness")
        second = extract_windows(netlist, max_inputs=6, strategy="hardness")
        assert first == second


class TestResolution:
    def test_names_resolve(self):
        assert isinstance(resolve_windowing(None), LevelizedGreedy)
        assert isinstance(resolve_windowing("greedy"), LevelizedGreedy)
        assert isinstance(resolve_windowing("hardness"), MinCutSeeded)

    def test_instance_passthrough(self):
        strategy = MinCutSeeded()
        assert resolve_windowing(strategy) is strategy

    def test_unknown_name_rejected(self):
        with pytest.raises(WindowError):
            resolve_windowing("bogus")
