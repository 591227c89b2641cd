"""Tests of the two window partitions against frozen reference loops.

The default ``greedy`` partition must be byte-identical to the original
``extract_windows`` loop, and the ``hardness`` (min-cut seeded) partition to
the loop of the strategy class it replaced; both loops are frozen here as
reference reimplementations.  The min-cut partition must also stay a valid
levelized partition under the same bounds.
"""

from pathlib import Path

import pytest

from repro.netlist import standard_cell_library
from repro.netlist.blif import read_blif
from repro.netlist.generate import random_netlist
from repro.netlist.window import WindowError, extract_windows

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


def _legacy_min_cut_member_lists(netlist, max_inputs, max_instances):
    """The min-cut seeded partition loop of the strategy class, frozen."""
    order = netlist.topological_order()
    available = set(netlist.primary_inputs) | set(_CONST_NETS)
    remaining = list(order)
    member_lists = []
    while remaining:
        members = []
        member_outputs = set()
        boundary = set()
        boundary_history = []
        for instance in remaining:
            if len(members) >= max_instances:
                continue
            inputs = set(instance.inputs)
            if not inputs <= (available | member_outputs):
                continue
            external = {
                net
                for net in inputs
                if net not in member_outputs and net not in _CONST_NETS
            }
            if len(boundary | external) > max_inputs:
                continue
            members.append(instance.name)
            member_outputs.add(instance.output)
            boundary |= external
            boundary_history.append(len(boundary))
        assert members, "min-cut reference loop failed to make progress"
        lo = (len(members) + 1) // 2
        best_position = lo
        for position in range(lo, len(members) + 1):
            if boundary_history[position - 1] <= boundary_history[best_position - 1]:
                best_position = position
        kept = members[:best_position]
        kept_set = set(kept)
        available |= {netlist.instance(name).output for name in kept}
        member_lists.append(kept)
        remaining = [
            instance for instance in remaining if instance.name not in kept_set
        ]
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
        assert extract_windows(netlist, max_inputs=6, strategy="greedy") == windows


#: (max_inputs, max_instances) pairs; 4 is the widest cell arity.
_BOUNDS = [(4, 4), (4, 48), (5, 9), (6, 16), (6, 48), (8, 24)]


class TestMinCutReference:
    @pytest.mark.parametrize("bounds", _BOUNDS, ids=lambda b: f"{b[0]}in-{b[1]}cells")
    def test_wide30(self, library, bounds):
        netlist = _wide30(library)
        windows = extract_windows(netlist, *bounds, strategy="hardness")
        assert [list(w.instance_names) for w in windows] == (
            _legacy_min_cut_member_lists(netlist, *bounds)
        )

    @pytest.mark.parametrize("bounds", _BOUNDS, ids=lambda b: f"{b[0]}in-{b[1]}cells")
    def test_generated_netlists(self, library, bounds):
        for seed in range(24):
            num_inputs = 6 + seed % 10
            netlist = random_netlist(
                seed, library, num_inputs=num_inputs,
                num_cells=2 * num_inputs + seed, num_outputs=4,
                depth_bias=num_inputs if seed % 2 else None,
            )
            windows = extract_windows(netlist, *bounds, strategy="hardness")
            assert [list(w.instance_names) for w in windows] == (
                _legacy_min_cut_member_lists(netlist, *bounds)
            ), f"seed {seed}"


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
    def test_unknown_name_rejected(self, library):
        with pytest.raises(WindowError, match="'bogus'"):
            extract_windows(_wide30(library), max_inputs=6, strategy="bogus")
