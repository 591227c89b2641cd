"""Command-line interface.

Examples
--------
Obfuscate four PRESENT-style S-boxes and write the camouflaged Verilog::

    python -m repro.cli obfuscate --family PRESENT --count 4 --verilog out.v

Reproduce Table I with the quick profile::

    python -m repro.cli table1 --profile quick

Reproduce Figure 4::

    python -m repro.cli figure4 --profile quick

Run the adversary analysis on a small obfuscated design::

    python -m repro.cli attack --count 2

Exercise and benchmark the word-parallel simulation engine::

    python -m repro.cli sim --family PRESENT --count 2 --patterns 4096

Run a resumable campaign over registered workloads (AES-style 8-bit S-boxes
here; rerunning with the same ``--state-dir`` skips completed jobs)::

    python -m repro.cli campaign --workload AES:2 --population 4 \\
        --generations 1 --jobs 2 --state-dir /tmp/aes-campaign --csv out.csv

The experiment commands accept ``--jobs N`` to spread synthesis work over N
worker processes (default: the ``REPRO_JOBS`` environment variable, else
serial).  Seeded results are identical for every ``--jobs`` value.  The
fuzz-before-SAT paths (packed random simulation kills most candidates
before a solver call) are always on and never change a verdict; the
oracle-guided attack's presampling (``--presample``) trades a different
query transcript for far fewer SAT calls.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from .attacks.decamouflage import PlausibleFunctionOracle
from .evaluation.figure4 import run_figure4a, run_figure4b
from .evaluation.table1 import run_table1, table1_text
from .evaluation.workloads import (
    DES_FAMILY,
    PRESENT_FAMILY,
    get_profile,
    workload_functions,
)
from .flow.obfuscate import obfuscate
from .flow.report import (
    AreaRow,
    format_cache_stats,
    format_solver_stats,
    format_table,
)
from .ga.engine import GAParameters
from .parallel import resolve_jobs
from .netlist.verilog import write_verilog
from .netlist.blif import write_blif
from .netlist.window import WINDOWING_NAMES
from .synth.area import area_report

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the ``repro`` CLI."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Design automation for obfuscated circuits with multiple viable "
            "functions (DATE 2017 reproduction)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    obfuscate_parser = subparsers.add_parser(
        "obfuscate",
        help="run the three-phase flow on an S-box workload or a BLIF netlist",
        description=(
            "Without --blif-in: the classic flow over an S-box workload "
            "(exact viable functions).  With --blif-in: the windowed "
            "netlist flow — the circuit is decomposed into bounded-input "
            "windows, every window is obfuscated through the full Phase "
            "I-III pipeline (its exact function plus seeded decoy viable "
            "functions), and the camouflaged windows are stitched back "
            "together, so circuits with dozens of primary inputs never "
            "build a whole-circuit truth table."
        ),
    )
    obfuscate_parser.add_argument(
        "--family", choices=[PRESENT_FAMILY, DES_FAMILY], default=PRESENT_FAMILY
    )
    obfuscate_parser.add_argument("--count", type=int, default=2,
                                  help="number of viable S-boxes to merge")
    obfuscate_parser.add_argument("--population", type=int, default=8)
    obfuscate_parser.add_argument("--generations", type=int, default=6)
    obfuscate_parser.add_argument("--seed", type=int, default=1)
    obfuscate_parser.add_argument("--verilog", type=str, default="",
                                  help="write the camouflaged netlist to this Verilog file")
    obfuscate_parser.add_argument("--blif", type=str, default="",
                                  help="write the camouflaged netlist to this BLIF file")
    obfuscate_parser.add_argument("--report", action="store_true",
                                  help="print the per-cell area report")
    obfuscate_parser.add_argument("--jobs", type=int, default=0,
                                  help="worker processes for fitness evaluation "
                                       "(0 = REPRO_JOBS env var, else serial)")
    obfuscate_parser.add_argument("--blif-in", type=str, default="",
                                  help="obfuscate this BLIF netlist through the "
                                       "windowed pipeline instead of an S-box workload")
    obfuscate_parser.add_argument("--max-window-inputs", type=int, default=8,
                                  help="boundary-input bound per window (windowed mode)")
    obfuscate_parser.add_argument("--decoys", type=int, default=1,
                                  help="decoy viable functions per window (windowed mode)")
    obfuscate_parser.add_argument("--attack", action="store_true",
                                  help="run the oracle-guided attack on the stitched "
                                       "netlist after obfuscating (windowed mode)")
    obfuscate_parser.add_argument("--attack-queries", type=int, default=64,
                                  help="DIP budget of the --attack run")
    obfuscate_parser.add_argument("--presample", type=int, default=-1,
                                  help="random oracle observations before the DIP loop "
                                       "(-1 = the default, 32)")
    obfuscate_parser.add_argument("--sat-check", action="store_true",
                                  help="force the whole-netlist SAT equivalence check "
                                       "even beyond the default width limit")
    obfuscate_parser.add_argument("--windowing", choices=list(WINDOWING_NAMES),
                                  default="",
                                  help="window partition strategy (windowed mode; "
                                       "default: 'greedy')")

    table_parser = subparsers.add_parser("table1", help="reproduce Table I")
    table_parser.add_argument("--profile", type=str, default="",
                              help="experiment profile (quick, medium, paper)")
    table_parser.add_argument("--seed", type=int, default=1)
    table_parser.add_argument("--jobs", type=int, default=0,
                              help="worker processes for the sweep "
                                   "(0 = REPRO_JOBS env var, else serial)")

    figure_parser = subparsers.add_parser("figure4", help="reproduce Figure 4a/4b")
    figure_parser.add_argument("--profile", type=str, default="")
    figure_parser.add_argument("--seed", type=int, default=11)
    figure_parser.add_argument("--jobs", type=int, default=0,
                               help="worker processes for the sweeps "
                                    "(0 = REPRO_JOBS env var, else serial)")

    attack_parser = subparsers.add_parser(
        "attack", help="run the adversary's plausibility analysis on a small design"
    )
    attack_parser.add_argument("--count", type=int, default=2)
    attack_parser.add_argument("--family", choices=[PRESENT_FAMILY, DES_FAMILY],
                               default=PRESENT_FAMILY)
    attack_parser.add_argument("--population", type=int, default=6)
    attack_parser.add_argument("--generations", type=int, default=3)

    sim_parser = subparsers.add_parser(
        "sim",
        help="exercise the word-parallel simulation engine (cross-check + throughput)",
        description=(
            "Synthesise an S-box workload and drive it through the packed "
            "word-parallel simulator (repro.sim): every net carries one "
            "Python-int lane over the whole pattern batch.  The run "
            "cross-checks the packed engine against row-by-row simulation "
            "and against exhaustive extraction, then reports the measured "
            "throughput of both, which is the speedup the (default-on) "
            "fuzz-before-SAT pre-filters build on."
        ),
    )
    sim_parser.add_argument("--family", choices=[PRESENT_FAMILY, DES_FAMILY],
                            default=PRESENT_FAMILY)
    sim_parser.add_argument("--count", type=int, default=2,
                            help="number of S-boxes to synthesise and simulate")
    sim_parser.add_argument("--patterns", type=int, default=4096,
                            help="random patterns per packed batch")
    sim_parser.add_argument("--seed", type=int, default=7)

    campaign_parser = subparsers.add_parser(
        "campaign",
        help="run a declarative experiment campaign (resumable, multi-workload)",
        description=(
            "Express a Table-I-style sweep over any registered workload "
            "family (PRESENT, DES, AES, RANDOM, ...) as a campaign of jobs, "
            "executed over worker processes with resumable on-disk state: "
            "rerunning with the same --state-dir skips every job that "
            "already completed.  Results are written as JSON/CSV artifacts; "
            "--bench-dir also writes the header of the --json artifact alone."
        ),
    )
    campaign_parser.add_argument(
        "--workload", action="append", default=[], metavar="FAMILY:COUNT",
        help="workload configuration to sweep, e.g. AES:2 (repeatable; "
             "default: the profile's PRESENT/DES sweep)")
    campaign_parser.add_argument("--name", type=str, default="cli",
                                 help="campaign name (used in artifact file names)")
    campaign_parser.add_argument("--profile", type=str, default="",
                                 help="experiment profile (quick, medium, paper)")
    campaign_parser.add_argument("--seed", type=int, default=1)
    campaign_parser.add_argument("--population", type=int, default=0,
                                 help="override the profile's GA population")
    campaign_parser.add_argument("--generations", type=int, default=0,
                                 help="override the profile's GA generations")
    campaign_parser.add_argument("--with-attack", action="store_true",
                                 help="add an oracle-guided attack job per workload")
    campaign_parser.add_argument("--with-decamouflage", action="store_true",
                                 help="add a CEGAR decamouflage-hardness job per workload")
    campaign_parser.add_argument("--with-random-camo", action="store_true",
                                 help="add a random-camouflage baseline job per workload")
    campaign_parser.add_argument("--blif", type=str, default="",
                                 help="run the windowed obfuscation of this BLIF circuit "
                                      "as the campaign (one resumable job per window)")
    campaign_parser.add_argument("--max-window-inputs", type=int, default=8,
                                 help="boundary-input bound per window (--blif mode)")
    campaign_parser.add_argument("--decoys", type=int, default=1,
                                 help="decoy viable functions per window (--blif mode)")
    campaign_parser.add_argument("--no-verify", action="store_true",
                                 help="skip the per-row realisability verification")
    campaign_parser.add_argument("--jobs", type=int, default=0,
                                 help="worker processes (0 = REPRO_JOBS env var, else serial)")
    campaign_parser.add_argument("--state-dir", type=str, default="",
                                 help="directory for resumable per-job state files")
    campaign_parser.add_argument("--limit", type=int, default=-1,
                                 help="run at most N pending jobs (cached jobs are free; "
                                      "-1 = no limit)")
    campaign_parser.add_argument("--json", type=str, default="",
                                 help="write the full campaign result to this JSON file")
    campaign_parser.add_argument("--csv", type=str, default="",
                                 help="write the per-job result table to this CSV file")
    campaign_parser.add_argument("--bench-dir", type=str, default="",
                                 help="emit a BENCH_campaign_<name>.json into this directory")
    campaign_parser.add_argument("--list-workloads", action="store_true",
                                 help="list the registered workload families and exit")
    campaign_parser.add_argument("--windowing", choices=list(WINDOWING_NAMES),
                                 default="",
                                 help="window partition strategy (--blif mode)")
    campaign_parser.add_argument("--probe-hardness", action="store_true",
                                 help="probe each finished window with a bounded "
                                      "oracle-guided attack and record its work "
                                      "counters in the job telemetry (--blif mode)")
    campaign_parser.add_argument("--lease-ttl", type=float, default=0.0,
                                 help="job-lease time-to-live in seconds for shared "
                                      "--state-dir campaigns (default 60; heartbeats "
                                      "refresh every TTL/3)")
    campaign_parser.add_argument("--retries", type=int, default=0,
                                 help="max attempts per job on transient failures "
                                      "(default 3)")
    campaign_parser.add_argument("--solve-budget", type=str, default="",
                                 help="per-solve-call budget spec, e.g. "
                                      "'conflicts=20000,seconds=2.5' (default "
                                      "REPRO_SOLVE_BUDGET); doubled on every retry, "
                                      "jobs still over budget finish as timed_out")
    campaign_parser.add_argument("--submit", type=str, default="",
                                 metavar="URL",
                                 help="submit the campaign to a coordinator "
                                      "(repro serve) instead of running locally; "
                                      "streams progress and fetches the artifacts")
    campaign_parser.add_argument("--no-wait", action="store_true",
                                 help="with --submit: return after submission "
                                      "without waiting for completion")

    serve_parser = subparsers.add_parser(
        "serve",
        help="run the campaign coordinator (HTTP service for pull-based workers)",
        description=(
            "Serve campaigns over HTTP: accept CampaignSpec submissions "
            "(POST /campaigns, deduplicated by content fingerprint), "
            "arbitrate job leases for pull-based worker agents "
            "(python -m repro.service.worker), stream per-job progress as "
            "server-sent events, render JSON/CSV/BENCH artifacts, and host "
            "the fleet-shared synthesis cache (GET/PUT /cache/<fp>)."
        ),
    )
    serve_parser.add_argument("--host", type=str, default="127.0.0.1")
    serve_parser.add_argument("--port", type=int, default=8765)
    serve_parser.add_argument("--root", type=str, default="",
                              help="service state root directory (required)")
    serve_parser.add_argument("--lease-ttl", type=float, default=0.0,
                              help="job-lease time-to-live in seconds (default 60)")
    serve_parser.add_argument("--poll", type=float, default=0.0,
                              help="SSE/claim poll interval in seconds (default 0.25)")

    cache_parser = subparsers.add_parser(
        "cache",
        help="maintain the persistent synthesis cache",
        description=(
            "Maintenance for the REPRO_CACHE_DIR synthesis cache.  "
            "'compact' merges the per-process segment files that "
            "interleave-safe appends accumulate into one deduplicated "
            "segment (safe alongside live writers: they only append to "
            "their own segments)."
        ),
    )
    cache_parser.add_argument("action", choices=["compact"],
                              help="maintenance action to run")
    cache_parser.add_argument("--dir", type=str, default="",
                              help="cache directory (default REPRO_CACHE_DIR)")

    doctor_parser = subparsers.add_parser(
        "doctor",
        help="report the active compute backend (pure vs native) and why",
        description=(
            "Diagnose the backend dispatch: which backend REPRO_BACKEND "
            "requests, whether the compiled extension (repro._native._core) "
            "imports, which backend new solvers will actually use, and — "
            "when the native core is unavailable — the import error and "
            "the build command that fixes it.  --check runs a "
            "quick pure-vs-native differential cross-check on top."
        ),
    )
    doctor_parser.add_argument("--json", action="store_true",
                               help="emit the report as JSON")
    doctor_parser.add_argument("--check", action="store_true",
                               help="run a quick pure-vs-native differential "
                                    "cross-check (needs the extension built)")

    trace_parser = subparsers.add_parser(
        "trace",
        help="inspect a recorded trace (runs made with REPRO_TRACE=1)",
        description=(
            "Render the JSONL trace segments a REPRO_TRACE=1 run appended "
            "under REPRO_TRACE_DIR: the span tree with durations (one "
            "stitched tree per campaign, local or distributed), a per-name "
            "rollup of where the time went, the critical path through the "
            "longest chain of spans, or a standalone SVG timeline."
        ),
    )
    trace_parser.add_argument(
        "view",
        choices=["tree", "rollup", "critical-path", "timeline"],
        nargs="?",
        default="tree",
        help="which rendering to produce (default: tree)",
    )
    trace_parser.add_argument("--dir", type=str, default="",
                              help="trace directory (default REPRO_TRACE_DIR, "
                                   "else ./repro-trace)")
    trace_parser.add_argument("--svg", type=str, default="",
                              help="output path of the timeline SVG "
                                   "(timeline view; default trace_timeline.svg)")
    trace_parser.add_argument("--title", type=str, default="",
                              help="timeline title (default: trace timeline)")
    return parser


def _reject_flags(args: argparse.Namespace, mode: str, flags: Sequence[str]) -> None:
    """Exit naming the first of ``flags`` that differs from its default.

    ``mode`` names the invocation that has no use for them, so a flag the
    command would otherwise ignore is an argument error instead.
    """
    defaults = build_parser().parse_args([args.command])
    for flag in flags:
        name = flag[2:].replace("-", "_")
        if getattr(args, name) != getattr(defaults, name):
            raise SystemExit(f"{mode} does not support {flag}")


def _command_obfuscate(args: argparse.Namespace) -> int:
    if args.blif_in:
        _reject_flags(args, "obfuscate --blif-in", ("--family", "--count", "--report"))
        return _command_obfuscate_windowed(args)
    _reject_flags(
        args,
        "obfuscate without --blif-in",
        ("--max-window-inputs", "--decoys", "--attack", "--attack-queries",
         "--presample", "--sat-check", "--windowing"),
    )
    functions = workload_functions(args.family, args.count)
    parameters = GAParameters(
        population_size=args.population, generations=args.generations, seed=args.seed
    )
    result = obfuscate(
        functions,
        ga_parameters=parameters,
        jobs=resolve_jobs(args.jobs or None),
    )
    print(result.summary())
    if args.report:
        print()
        print(area_report(result.netlist).to_text())
    if args.verilog:
        with open(args.verilog, "w", encoding="utf-8") as handle:
            handle.write(write_verilog(result.netlist))
        print(f"wrote {args.verilog}")
    if args.blif:
        with open(args.blif, "w", encoding="utf-8") as handle:
            handle.write(write_blif(result.netlist))
        print(f"wrote {args.blif}")
    return 0 if result.verification.all_realisable else 1


def _command_obfuscate_windowed(args: argparse.Namespace) -> int:
    """Windowed mode of the ``obfuscate`` command (BLIF in, stitched out)."""
    from .attacks.oracle_guided import attack_windowed
    from .flow.target import obfuscate_netlist
    from .ga.engine import GAParameters
    from .netlist.blif import read_blif
    from .netlist.library import standard_cell_library

    with open(args.blif_in, "r", encoding="utf-8") as handle:
        netlist = read_blif(handle.read(), standard_cell_library())
    print(
        f"windowed obfuscation of {netlist.name!r}: "
        f"{len(netlist.primary_inputs)} inputs, {netlist.num_instances()} cells"
    )
    parameters = GAParameters(
        population_size=args.population, generations=args.generations, seed=args.seed
    )
    result = obfuscate_netlist(
        netlist,
        max_window_inputs=args.max_window_inputs,
        decoys_per_window=args.decoys,
        ga_parameters=parameters,
        seed=args.seed,
        sat_check=True if args.sat_check else None,
        jobs=resolve_jobs(args.jobs or None),
        progress=print,
        windowing=args.windowing or None,
    )
    print()
    print(result.summary())
    if args.verilog:
        with open(args.verilog, "w", encoding="utf-8") as handle:
            handle.write(write_verilog(result.netlist))
        print(f"wrote {args.verilog}")
    if args.blif:
        with open(args.blif, "w", encoding="utf-8") as handle:
            handle.write(write_blif(result.netlist))
        print(f"wrote {args.blif}")
    ok = result.verification.ok
    if args.attack:
        print()
        presample = None if args.presample < 0 else args.presample
        outcome = attack_windowed(
            result, max_queries=args.attack_queries, presample=presample
        )
        print(
            f"oracle-guided attack: success={outcome.success} "
            f"dips={outcome.num_queries} "
            f"oracle queries={outcome.total_oracle_queries} "
            f"(budget {args.attack_queries} DIPs)"
        )
        print(
            format_solver_stats(
                [("windowed attack", outcome.solver_stats)],
                title="incremental solver work:",
            )
        )
    return 0 if ok else 1


def _command_table1(args: argparse.Namespace) -> int:
    profile = get_profile(args.profile)
    jobs = resolve_jobs(args.jobs or None)
    entries = run_table1(profile=profile, seed=args.seed, progress=print, jobs=jobs)
    print()
    print(table1_text(entries, profile_name=profile.name))
    # Mirror run_table1's budget split: in a parallel sweep each row runs
    # with the leftover per-row worker budget, not the outer --jobs value.
    row_jobs = max(1, jobs // len(entries)) if jobs > 1 and len(entries) > 1 else jobs
    cache_rows = [
        (
            f"{entry.row.circuit} x{entry.row.num_functions}",
            entry.obfuscation.pin_optimization.cache_stats,
        )
        for entry in entries
        if entry.obfuscation.pin_optimization is not None
    ]
    if cache_rows:
        print()
        print(format_cache_stats(
            cache_rows, row_jobs, title="fitness-cache work (GA, parent process):"
        ))
    ok = all(entry.verification_ok for entry in entries)
    print()
    print("validation:", "all viable functions realisable" if ok else "FAILURES present")
    return 0 if ok else 1


def _command_figure4(args: argparse.Namespace) -> int:
    profile = get_profile(args.profile)
    jobs = resolve_jobs(args.jobs or None)
    data_a = run_figure4a(profile=profile, seed=args.seed, jobs=jobs)
    print(data_a.to_text())
    print()
    data_b = run_figure4b(profile=profile, seed=args.seed, jobs=jobs)
    print(data_b.to_text())
    return 0


def _command_attack(args: argparse.Namespace) -> int:
    functions = workload_functions(args.family, args.count)
    parameters = GAParameters(
        population_size=args.population, generations=args.generations, seed=1
    )
    result = obfuscate(functions, ga_parameters=parameters)
    print(result.summary())
    print()
    oracle = PlausibleFunctionOracle.from_mapping(result.mapping)
    views = result.assignment.apply(list(functions))
    print("adversary plausibility checks (viable functions, designer's pin view):")
    all_plausible = True
    for function, view in zip(functions, views):
        outcome = oracle.is_plausible(view)
        all_plausible &= bool(outcome)
        print(f"  {function.name:<12} plausible={bool(outcome)} conflicts={outcome.conflicts}")
    print()
    print(
        format_solver_stats(
            [("plausibility oracle", oracle.solver_stats())],
            title="incremental solver work:",
        )
    )
    return 0 if all_plausible else 1


def _command_sim(args: argparse.Namespace) -> int:
    import time

    from .netlist.simulate import simulate_assignment
    from .sim import AigSimulator, NetlistSimulator, PatternBatch
    from .synth.script import synthesize

    functions = workload_functions(args.family, args.count)
    all_consistent = True
    print(f"word-parallel simulation check ({args.family} x{args.count}, "
          f"{args.patterns} patterns, seed {args.seed}):")
    for function in functions:
        result = synthesize(function, effort="fast")
        netlist = result.netlist
        simulator = NetlistSimulator(netlist)
        batch = PatternBatch.random(
            len(netlist.primary_inputs), args.patterns, seed=args.seed
        )

        start = time.perf_counter()
        lanes = simulator.output_lanes(batch)
        packed_seconds = time.perf_counter() - start

        # Row-by-row reference on a bounded sample of the same patterns.
        sample = min(batch.num_patterns, 64)
        start = time.perf_counter()
        consistent = True
        for position in range(sample):
            word = batch.word_at(position)
            assignment = {
                net: (word >> index) & 1
                for index, net in enumerate(netlist.primary_inputs)
            }
            values = simulate_assignment(netlist, assignment)
            for out_index, net in enumerate(netlist.primary_outputs):
                if values[net] != (lanes[out_index] >> position) & 1:
                    consistent = False
        rowwise_seconds = time.perf_counter() - start

        extracted = simulator.extract_function()
        consistent &= extracted.lookup_table() == function.lookup_table()
        sample_words = batch.words()[:sample]
        aig_words = AigSimulator(result.aig).simulate_words(sample_words)
        consistent &= aig_words == simulator.simulate_words(sample_words)
        all_consistent &= consistent

        packed_rate = batch.num_patterns / packed_seconds if packed_seconds else 0.0
        row_rate = sample / rowwise_seconds if rowwise_seconds else 0.0
        print(
            f"  {function.name:<12} {netlist.num_instances():>3} cells  "
            f"packed {packed_rate:>12.0f} patt/s  row-by-row {row_rate:>9.0f} patt/s  "
            f"consistent={consistent}"
        )
    print()
    print("cross-checks:", "OK" if all_consistent else "FAILED")
    return 0 if all_consistent else 1


def _parse_workload_selector(selector: str) -> tuple:
    """Parse a ``FAMILY:COUNT`` CLI selector."""
    family, _, count_text = selector.partition(":")
    if not family or not count_text:
        raise SystemExit(
            f"invalid workload selector {selector!r}; expected FAMILY:COUNT (e.g. AES:2)"
        )
    try:
        count = int(count_text)
    except ValueError:
        raise SystemExit(f"invalid workload count in {selector!r}") from None
    return family.upper(), count


def _campaign_robustness_kwargs(args: argparse.Namespace) -> dict:
    """Runner kwargs from the --lease-ttl/--retries/--solve-budget flags."""
    from .jobstore import RetryPolicy
    from .sat.solver import SolveBudget

    kwargs = {}
    if args.lease_ttl > 0:
        kwargs["lease_ttl"] = args.lease_ttl
    if args.retries > 0:
        kwargs["retry_policy"] = RetryPolicy(max_attempts=args.retries)
    if args.solve_budget:
        try:
            kwargs["solve_budget"] = SolveBudget.from_spec(args.solve_budget)
        except ValueError as exc:
            raise SystemExit(f"invalid --solve-budget: {exc}") from exc
    return kwargs


def _print_robustness(outcome) -> None:
    """One line of retry/lease/crash counters when anything happened."""
    if outcome.robustness:
        counters = ", ".join(
            f"{key}={value:g}" for key, value in sorted(outcome.robustness.items())
        )
        print(f"robustness: {counters}")


def _command_campaign(args: argparse.Namespace) -> int:
    import dataclasses

    from .evaluation.workloads import get_profile as get_workload_profile
    from .scenarios import (
        CampaignError,
        CampaignRunner,
        CampaignSpec,
        WorkloadError,
        available_families,
        get_family,
    )

    if args.list_workloads:
        print("registered workload families:")
        for name in available_families():
            print(f"  {name:<10} {get_family(name).description}")
        return 0

    if args.submit:
        # The coordinator's fleet runs on the coordinator's settings, and
        # window jobs re-read a BLIF path remote workers cannot see.
        _reject_flags(
            args,
            "--submit",
            ("--blif", "--state-dir", "--limit", "--jobs",
             "--lease-ttl", "--retries", "--solve-budget"),
        )

    if args.blif:
        _reject_flags(
            args,
            "campaign --blif",
            ("--workload", "--profile", "--with-attack", "--with-decamouflage",
             "--with-random-camo"),
        )
        return _command_campaign_windowed(args)
    _reject_flags(
        args,
        "campaign without --blif",
        ("--max-window-inputs", "--decoys", "--windowing", "--probe-hardness"),
    )

    profile = get_workload_profile(args.profile)
    overrides = {}
    if args.population > 0:
        overrides["ga_population"] = args.population
    if args.generations > 0:
        overrides["ga_generations"] = args.generations
    if overrides:
        profile = dataclasses.replace(profile, **overrides)

    if args.workload:
        families = [_parse_workload_selector(selector) for selector in args.workload]
        # Validate selectors up front: a typo'd family or impossible count
        # should be an argument error, not N buried per-job failures.
        for family, count in families:
            try:
                get_family(family).check_count(count)
            except WorkloadError as exc:
                raise SystemExit(str(exc)) from exc
    else:
        families = [(PRESENT_FAMILY, count) for count in profile.present_counts]
        families += [(DES_FAMILY, count) for count in profile.des_counts]

    try:
        spec = CampaignSpec.table1(
            profile, families, seed=args.seed, verify=not args.no_verify, name=args.name
        )
        if args.with_attack:
            spec = spec.merged(
                CampaignSpec.attacks(
                    families,
                    population=profile.ga_population,
                    generations=profile.ga_generations,
                    seed=args.seed,
                ),
                name=args.name,
            )
        if args.with_decamouflage or args.with_random_camo:
            spec = spec.merged(
                CampaignSpec.adversary(
                    families,
                    population=profile.ga_population,
                    generations=profile.ga_generations,
                    seed=args.seed,
                    decamouflage=args.with_decamouflage,
                    random_camo=args.with_random_camo,
                ),
                name=args.name,
            )
    except CampaignError as exc:
        # e.g. the same --workload selector given twice: a clean CLI error,
        # not a traceback.
        raise SystemExit(f"invalid campaign: {exc}") from exc

    if args.submit:
        return _submit_campaign(args, spec)

    from .obs.log import get_logger

    runner = CampaignRunner(
        spec,
        state_dir=args.state_dir or None,
        jobs=resolve_jobs(args.jobs or None),
        progress=get_logger("campaign"),
        **_campaign_robustness_kwargs(args),
    )
    outcome = runner.run(limit=args.limit if args.limit >= 0 else None)

    print()
    print(f"campaign {outcome.name}: {len(outcome.completed)}/{len(outcome.results)} "
          f"jobs complete ({len(outcome.cached)} cached, {len(outcome.failed)} failed, "
          f"{len(outcome.pending)} pending) in {outcome.total_seconds:.1f}s")
    _print_robustness(outcome)

    rows = []
    for result in outcome.results:
        if result.kind != "table1_row" or not result.ok:
            continue
        if result.value is not None:
            rows.append(result.value.row)
        elif "row" in result.payload:
            # Cached jobs carry no rich value; rebuild the row from the
            # persisted payload so resumed campaigns render complete tables.
            rows.append(AreaRow.from_dict(result.payload["row"]))
    if rows:
        print()
        print(format_table(rows, title=f"Campaign area rows (profile: {profile.name})"))
    for result in outcome.results:
        if result.kind == "attack" and result.ok:
            queries = result.payload.get("total_oracle_queries", "?")
            print(f"attack {result.job_id}: success={result.payload.get('success')} "
                  f"oracle queries={queries}")
        elif result.kind == "decamouflage" and result.ok:
            print(f"decamouflage {result.job_id}: "
                  f"{result.payload.get('plausible')}/{result.payload.get('total')} "
                  f"viable functions plausible "
                  f"(CEGAR rounds={result.payload.get('prefilter', {}).get('cegar_rounds')})")
        elif result.kind == "random_camo" and result.ok:
            print(f"random-camo {result.job_id}: "
                  f"{result.payload.get('num_plausible')}/{result.payload.get('total')} "
                  f"candidates plausible at fraction "
                  f"{result.payload.get('fraction')}")

    written = outcome.write_artifacts(
        json_path=args.json or None,
        csv_path=args.csv or None,
        bench_dir=args.bench_dir or None,
    )
    for path in written:
        print(f"wrote {path}")
    # A row whose circuit lost a viable function still finishes "ok"; fresh
    # and cached rows both record the verdict in their payload.
    unverified = [
        result.job_id
        for result in outcome.results
        if result.kind == "table1_row"
        and result.ok
        and not result.payload.get("verification_ok", True)
    ]
    if unverified:
        print(f"verification failed: {', '.join(unverified)}")
    return 1 if outcome.failed or unverified else 0


def _submit_campaign(args: argparse.Namespace, spec) -> int:
    """``campaign --submit URL``: run the spec through a coordinator."""
    from .obs.log import get_logger
    from .obs.trace import span as trace_span
    from .service.client import ServiceClient
    from .service.protocol import ServiceError

    log = get_logger("campaign")
    # The client span is the trace root of a distributed run: its context
    # rides the submit request's traceparent header, the coordinator parents
    # the campaign span under it, and every worker attempt stitches in.
    with trace_span("client", campaign=spec.name) as client_span:
        try:
            client = ServiceClient(args.submit)
            submitted = client.submit(spec.to_dict())
        except ServiceError as exc:
            raise SystemExit(f"submit failed: {exc.message}") from exc
        campaign_id = submitted["campaign"]
        client_span.annotate(campaign_id=campaign_id)
        log(
            f"campaign {campaign_id}: "
            f"{'created' if submitted.get('created') else 'already submitted'} "
            f"({submitted.get('jobs')} jobs) on {client.base_url}",
            campaign=campaign_id,
            created=bool(submitted.get("created")),
            jobs=submitted.get("jobs"),
        )
        if args.no_wait:
            return 0
        try:
            status = client.wait(campaign_id, progress=log)
        except ServiceError as exc:
            raise SystemExit(f"wait failed: {exc.message}") from exc
    counts = status.get("counts", {})
    failed = counts.get("error", 0) + counts.get("timed_out", 0)
    print()
    print(
        f"campaign {status.get('name', campaign_id)}: "
        f"{counts.get('done', 0)}/{status.get('jobs', 0)} jobs complete "
        f"({failed} failed)"
    )
    robustness = status.get("robustness", {})
    if robustness:
        print(
            "robustness: "
            + ", ".join(
                f"{key}={value:g}" for key, value in sorted(robustness.items())
            )
        )
    fetches = []
    if args.json:
        fetches.append(("json", args.json))
    if args.csv:
        fetches.append(("csv", args.csv))
    if args.bench_dir:
        os.makedirs(args.bench_dir, exist_ok=True)
        fetches.append(
            (
                "bench",
                os.path.join(args.bench_dir, f"BENCH_campaign_{spec.name}.json"),
            )
        )
    for kind, path in fetches:
        try:
            text = client.artifact(campaign_id, kind)
        except ServiceError as exc:
            raise SystemExit(f"artifact fetch failed: {exc.message}") from exc
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {path}")
    return 1 if failed else 0


def _command_serve(args: argparse.Namespace) -> int:
    from .service.protocol import DEFAULT_POLL_SECONDS, ServiceError
    from .service.server import CampaignService

    try:
        service = CampaignService(
            root=args.root,
            lease_ttl=args.lease_ttl or None,
            poll=args.poll or DEFAULT_POLL_SECONDS,
        )
    except ServiceError as exc:
        raise SystemExit(exc.message) from exc
    try:
        service.run(host=args.host, port=args.port)
    except KeyboardInterrupt:
        pass
    return 0


def _command_doctor(args: argparse.Namespace) -> int:
    import json as json_module

    from . import backend as backend_module

    report = backend_module.backend_report()
    check_result = None
    if args.check:
        check_result = _doctor_check(report)
        report = dict(report, check=check_result)

    if args.json:
        print(json_module.dumps(report, indent=2, sort_keys=True))
    else:
        env_value = os.environ.get(backend_module.BACKEND_ENV_VAR, "")
        print("backend doctor:")
        print(f"  requested:        {report['requested']}"
              + (f"  ({backend_module.BACKEND_ENV_VAR}={env_value!r})"
                 if env_value else "  (default)"))
        print(f"  native available: {report['native_available']}")
        if report["native_module"]:
            print(f"  native module:    {report['native_module']}")
        print(f"  active:           {report['active']}")
        if report["fallback_reason"]:
            print(f"  fallback reason:  {report['fallback_reason']}")
        if not report["native_available"]:
            print("  build with:       python setup.py build_ext --inplace")
        if check_result is not None:
            status = check_result["status"]
            detail = check_result.get("detail", "")
            print(f"  cross-check:      {status}" + (f"  ({detail})" if detail else ""))

    if report["active"] == "unavailable":
        return 1
    if check_result is not None and check_result["status"] == "FAILED":
        return 1
    return 0


def _doctor_check(report: dict) -> dict:
    """Quick differential cross-check for ``repro doctor --check``."""
    if not report["native_available"]:
        return {"status": "skipped", "detail": "native extension not built"}

    from .sat.generate import generate_pair
    from .sat.solver import SatSolver

    pair = generate_pair(24, seed=1)
    for clauses in (pair.unsat_clauses, pair.sat_clauses):
        pure = SatSolver(backend="pure")
        native = SatSolver(backend="native")
        for clause in clauses:
            pure.add_clause(clause)
            native.add_clause(clause)
        result_pure = pure.solve()
        result_native = native.solve()
        if (result_pure.status, result_pure.model) != (
            result_native.status,
            result_native.model,
        ):
            return {"status": "FAILED", "detail": "solver verdict/model mismatch"}
        if pure.stats() != native.stats():
            return {"status": "FAILED", "detail": "solver stats transcript mismatch"}
    return {"status": "OK", "detail": "solver transcripts identical"}


def _command_trace(args: argparse.Namespace) -> int:
    from .obs.render import (
        render_critical_path,
        render_rollup,
        render_timeline,
        render_tree,
    )
    from .obs.trace import load_trace, trace_dir

    directory = args.dir or trace_dir()
    records = load_trace(directory)
    if not records:
        raise SystemExit(
            f"no trace records under {directory!r} "
            f"(run with REPRO_TRACE=1 and REPRO_TRACE_DIR={directory} first)"
        )
    if args.view == "tree":
        print(render_tree(records))
    elif args.view == "rollup":
        print(render_rollup(records))
    elif args.view == "critical-path":
        print(render_critical_path(records))
    else:
        path = args.svg or "trace_timeline.svg"
        svg = render_timeline(records, title=args.title or "trace timeline")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(svg)
        print(f"wrote {path} ({len(records)} records)")
    return 0


def _command_cache(args: argparse.Namespace) -> int:
    from .ga.pinopt import CACHE_DIR_ENV_VAR, compact_cache_dir

    directory = args.dir or os.environ.get(CACHE_DIR_ENV_VAR, "").strip()
    if not directory:
        raise SystemExit("no cache directory (pass --dir or set REPRO_CACHE_DIR)")
    if not os.path.isdir(directory):
        raise SystemExit(f"cache directory {directory!r} does not exist")
    stats = compact_cache_dir(directory)
    print(
        f"compacted {directory}: {stats['entries']} entries from "
        f"{stats['files_merged']} files "
        f"({stats['segments_removed']} segments removed)"
    )
    return 0


def _command_campaign_windowed(args: argparse.Namespace) -> int:
    """``campaign --blif``: windowed obfuscation with resumable window jobs."""
    from .scenarios.campaign import CampaignSpec, run_windowed_campaign

    spec = CampaignSpec.windowed(
        args.blif,
        max_window_inputs=args.max_window_inputs,
        decoys=args.decoys,
        seed=args.seed,
        population=args.population or 4,
        generations=args.generations or 2,
        verify=not args.no_verify,
        name=args.name,
        windowing=args.windowing or None,
        probe_hardness=args.probe_hardness,
    )
    from .obs.log import get_logger

    outcome, assembled = run_windowed_campaign(
        args.blif,
        spec=spec,
        state_dir=args.state_dir or None,
        jobs=resolve_jobs(args.jobs or None),
        limit=args.limit if args.limit >= 0 else None,
        progress=get_logger("campaign"),
        verify=not args.no_verify,
        **_campaign_robustness_kwargs(args),
    )
    print()
    print(f"campaign {outcome.name}: {len(outcome.completed)}/{len(outcome.results)} "
          f"window jobs complete ({len(outcome.cached)} cached, "
          f"{len(outcome.failed)} failed, {len(outcome.pending)} pending) "
          f"in {outcome.total_seconds:.1f}s")
    _print_robustness(outcome)
    written = outcome.write_artifacts(
        json_path=args.json or None,
        csv_path=args.csv or None,
        bench_dir=args.bench_dir or None,
    )
    for path in written:
        print(f"wrote {path}")
    if assembled is None:
        print("windows still pending or failed; rerun to complete the stitch")
        return 1 if outcome.failed else 0
    print()
    print(assembled.summary())
    return 0 if assembled.verification.ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    handlers = {
        "obfuscate": _command_obfuscate,
        "table1": _command_table1,
        "figure4": _command_figure4,
        "attack": _command_attack,
        "sim": _command_sim,
        "campaign": _command_campaign,
        "serve": _command_serve,
        "cache": _command_cache,
        "doctor": _command_doctor,
        "trace": _command_trace,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
