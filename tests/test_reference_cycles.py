"""Synthesis and Phase III mapping leave no reference cycles behind.

A recursive closure refers to itself through its enclosing function's
cell, so each call that builds one leaves a function-cell cycle holding the
closure's memo until the cyclic collector runs.  With the collector off
during a call, ``gc.collect()`` afterwards must find nothing to free.
"""

from __future__ import annotations

import gc

from repro.synth import synthesize
from repro.techmap import camouflage_map


def _garbage_after(call) -> int:
    """Run ``call`` with the collector off; return what a collection then frees."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def test_synthesis_leaves_no_cycles(present):
    assert _garbage_after(lambda: synthesize(present)) == 0


def test_camouflage_mapping_leaves_no_cycles(merged_two, merged_two_synthesis, camo_library):
    select_nets = [f"sel[{k}]" for k in range(merged_two.num_selects)]
    netlist = merged_two_synthesis.netlist
    assert _garbage_after(lambda: camouflage_map(netlist, select_nets, camo_library)) == 0
