"""Campaign runner: declarative experiment sweeps with resumable state.

A *campaign* is a Table-I/Figure-4-style sweep expressed as data: a
:class:`CampaignSpec` holds a list of :class:`CampaignJob`\\ s (workload x
configuration x experiment kind), and :class:`CampaignRunner` executes them
over :mod:`repro.parallel` worker processes.  The runner is the single
engine behind :func:`repro.evaluation.table1.run_table1`,
:func:`repro.evaluation.figure4.run_figure4a` / ``run_figure4b`` and the
``campaign`` CLI subcommand.

Three properties the ad-hoc sweep loops did not have:

* **Declarative job graph** — a spec is plain JSON-safe data
  (:meth:`CampaignSpec.to_dict` / :meth:`~CampaignSpec.from_dict`), so
  sweeps can be stored, diffed and generated.
* **Resumable on-disk state** — with a ``state_dir`` every finished job is
  persisted as ``<state_dir>/<job_id>.json`` (written atomically) together
  with a fingerprint of its parameters; a rerun skips jobs whose state file
  matches and only executes what is missing, so an interrupted campaign
  completes from where it stopped instead of recomputing finished rows.
* **Artifact emission** — results render to CSV and to JSON; the header
  of the ``--json`` artifact (campaign counts, per-job seconds, merged
  telemetry, robustness counters) is also written alone as
  ``BENCH_campaign_<name>.json``.

Seeding discipline is inherited from the harnesses: every job is seeded
independently, so results are bit-identical for any ``jobs`` value and any
interleaving of cached and fresh jobs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import pickle
import threading
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..faults import corrupt_text, faults_enabled, fired_counts, maybe_kill_process
from ..jobstore import JobStore, Lease, LeaseLost, RetryPolicy, classify_failure
from ..obs import trace as obs_trace
from ..obs.trace import (
    attach_context,
    format_traceparent,
    job_span_id,
    tracing_enabled,
)
from ..parallel import WorkerCrashed, WorkerPool, resolve_jobs
from ..sat.solver import BUDGET_ENV_VAR, SolveBudget, SolveBudgetExceeded
from ..telemetry import RunTelemetry

__all__ = [
    "CampaignError",
    "CampaignJob",
    "CampaignSpec",
    "JobBook",
    "JobResult",
    "CampaignResult",
    "CampaignRunner",
    "run_campaign",
    "run_windowed_campaign",
    "window_record_from_payload",
]


class CampaignError(ValueError):
    """Raised for malformed specs, duplicate job ids, or unknown job kinds."""


@dataclass(frozen=True)
class CampaignJob:
    """One unit of campaign work (JSON-safe, stable identity).

    ``job_id`` doubles as the state-file name; ``params`` must stay
    JSON-serialisable because the fingerprint and the on-disk state are
    derived from it.
    """

    job_id: str
    kind: str
    params: Dict[str, Any] = field(default_factory=dict)

    def fingerprint(self) -> str:
        """Stable hash of (kind, params): the resume-safety token.

        A state file only short-circuits a job whose fingerprint matches, so
        editing a spec invalidates exactly the jobs it changed.  Non-JSON
        params are rejected outright — a fallback stringification (e.g. an
        object repr with a memory address) would fingerprint differently on
        every run and silently defeat resume.
        """
        try:
            blob = json.dumps(
                {"kind": self.kind, "params": self.params}, sort_keys=True
            )
        except (TypeError, ValueError) as exc:
            raise CampaignError(
                f"job {self.job_id!r} params are not JSON-serialisable: {exc}"
            ) from exc
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _profile_to_dict(profile) -> Dict[str, Any]:
    """Encode an ExperimentProfile as JSON-safe data."""
    return asdict(profile)


def _profile_from_dict(data: Dict[str, Any]):
    """Rebuild an ExperimentProfile from :func:`_profile_to_dict` output."""
    from ..evaluation.workloads import ExperimentProfile

    payload = dict(data)
    for key in ("present_counts", "des_counts"):
        if key in payload:
            payload[key] = tuple(payload[key])
    return ExperimentProfile(**payload)


# ------------------------------------------------------------------ #
# Job kinds
# ------------------------------------------------------------------ #
# Each handler takes (params, task_jobs) and returns (value, payload):
# ``value`` is the rich in-memory result (picklable; not persisted),
# ``payload`` the JSON-safe summary written to the state file.


def _run_table1_row(params: Dict[str, Any], task_jobs: int) -> Tuple[Any, dict]:
    from ..evaluation.table1 import run_table1_entry
    from ..synth.script import synthesis_counters, synthesis_counters_since

    synth_before = synthesis_counters()
    entry = run_table1_entry(
        params["family"],
        int(params["count"]),
        profile=_profile_from_dict(params["profile"]),
        seed=int(params.get("seed", 1)),
        verify=bool(params.get("verify", True)),
        jobs=task_jobs,
    )
    payload = {
        "row": entry.row.as_dict(),
        "ga_evaluations": entry.ga_evaluations,
        "verification_ok": entry.verification_ok,
        "telemetry": RunTelemetry()
        .absorb("synth", synthesis_counters_since(synth_before))
        .to_dict(),
    }
    return entry, payload


def _run_figure4a(params: Dict[str, Any], task_jobs: int) -> Tuple[Any, dict]:
    from ..evaluation.figure4 import compute_figure4a

    data = compute_figure4a(
        profile=_profile_from_dict(params["profile"]),
        num_samples=params.get("num_samples"),
        seed=int(params.get("seed", 11)),
        bin_width=float(params.get("bin_width", 5.0)),
        jobs=task_jobs,
    )
    payload = {
        "average": data.average,
        "best": data.best,
        "worst": data.worst,
        "samples": len(data.areas),
    }
    return data, payload


def _run_figure4b(params: Dict[str, Any], task_jobs: int) -> Tuple[Any, dict]:
    from ..evaluation.figure4 import compute_figure4b

    data = compute_figure4b(
        profile=_profile_from_dict(params["profile"]),
        seed=int(params.get("seed", 11)),
        jobs=task_jobs,
    )
    payload = {
        "final_best": data.best_so_far[-1],
        "random_best": data.random_best,
        "random_average": data.random_average,
        "ga_evaluations": data.ga_evaluations,
        "ga_beats_best_random": data.ga_beats_best_random,
    }
    return data, payload


def _run_attack(params: Dict[str, Any], task_jobs: int) -> Tuple[Any, dict]:
    from ..attacks.oracle_guided import attack_mapping
    from ..evaluation.workloads import workload_functions
    from ..flow.obfuscate import obfuscate
    from ..ga.engine import GAParameters

    functions = workload_functions(params["family"], int(params["count"]))
    parameters = GAParameters(
        population_size=int(params.get("population", 4)),
        generations=int(params.get("generations", 1)),
        seed=int(params.get("seed", 1)),
    )
    flow = obfuscate(
        functions,
        ga_parameters=parameters,
        fitness_effort=params.get("fitness_effort", "fast"),
        final_effort=params.get("final_effort", "fast"),
        jobs=task_jobs,
    )
    outcome = attack_mapping(
        flow.mapping,
        true_select=int(params.get("true_select", 0)),
        max_queries=int(params.get("max_queries", 256)),
        presample=params.get("presample"),
    )
    # The campaign retries the job with an escalated budget (and marks it
    # "timed_out" if that fails too).
    outcome.raise_if_timed_out()
    telemetry = RunTelemetry(label="attack").absorb("solver", outcome.solver_stats)
    payload = {
        "success": outcome.success,
        "dip_queries": outcome.num_queries,
        "presample_queries": len(outcome.presample_queries),
        "total_oracle_queries": outcome.total_oracle_queries,
        "camouflaged_area": flow.camouflaged_area,
        "camouflaged_cells": flow.mapping.num_camouflaged_cells(),
        "solver": {
            key: int(value) for key, value in outcome.solver_stats.items()
        },
        "telemetry": telemetry.to_dict(),
    }
    return outcome, payload


def _run_decamouflage(params: Dict[str, Any], task_jobs: int) -> Tuple[Any, dict]:
    """CEGAR decamouflage hardness: which viable functions stay plausible?

    Obfuscates a workload, then runs the adversary's plausibility oracle
    (possibility pre-filter + simulation-guided CEGAR) over every viable
    function in its designer pin view.  The payload records the verdicts and
    the oracle's work counters — the hardness measures of the sweep.
    """
    from ..attacks.decamouflage import PlausibleFunctionOracle
    from ..evaluation.workloads import workload_functions
    from ..flow.obfuscate import obfuscate
    from ..ga.engine import GAParameters

    functions = workload_functions(params["family"], int(params["count"]))
    parameters = GAParameters(
        population_size=int(params.get("population", 4)),
        generations=int(params.get("generations", 1)),
        seed=int(params.get("seed", 1)),
    )
    flow = obfuscate(
        functions,
        ga_parameters=parameters,
        fitness_effort=params.get("fitness_effort", "fast"),
        final_effort=params.get("final_effort", "fast"),
        jobs=task_jobs,
    )
    oracle = PlausibleFunctionOracle.from_mapping(flow.mapping)
    views = flow.assignment.apply(list(functions))
    verdicts = [bool(oracle.is_plausible(view)) for view in views]
    solver_stats = {
        key: int(value) for key, value in oracle.solver_stats().items()
    }
    payload = {
        "plausible": sum(verdicts),
        "total": len(verdicts),
        "all_plausible": all(verdicts),
        "verdicts": verdicts,
        "camouflaged_cells": flow.mapping.num_camouflaged_cells(),
        "prefilter": {
            key: int(value) for key, value in oracle.prefilter_stats().items()
        },
        "solver": solver_stats,
        "telemetry": oracle.telemetry(label="decamouflage").to_dict(),
    }
    return {"verdicts": verdicts, "prefilter": oracle.prefilter_stats()}, payload


def _run_random_camo(params: Dict[str, Any], task_jobs: int) -> Tuple[Any, dict]:
    """Random-camouflaging baseline: Section I's negative result as a job.

    Synthesises the first viable function alone, camouflages a random
    fraction of its gates, and asks the adversary which viable functions
    remain plausible — quantifying how little random camouflage protects
    against a list of viable functions.
    """
    from ..attacks.random_camo import random_camouflage_experiment
    from ..evaluation.workloads import workload_functions
    from ..synth.script import synthesize

    functions = workload_functions(params["family"], int(params["count"]))
    synthesis = synthesize(
        functions[0], effort=params.get("effort", "fast")
    )
    experiment = random_camouflage_experiment(
        synthesis.netlist,
        functions,
        fraction=float(params.get("fraction", 0.5)),
        seed=int(params.get("seed", 1)),
    )
    payload = {
        "num_plausible": experiment.num_plausible,
        "total": len(experiment.plausible),
        "verdicts": list(experiment.plausible),
        "fraction": float(params.get("fraction", 0.5)),
        "area": experiment.circuit.area(),
        "camouflaged_cells": len(experiment.circuit.camouflaged_instances),
    }
    return experiment, payload


#: Window-job params of deleted mechanisms, each with the only value the
#: code still runs: the pass scheduler, the per-window attack probe and the
#: hardness-weighted decoy budgets.  A spec that names another value was
#: built for a run this code cannot reproduce, so it must not store uniform
#: results under that spec's fingerprint.
_RETIRED_WINDOW_PARAMS: Dict[str, Any] = {
    "scheduler": "fixed",
    "probe_hardness": False,
    "hardness": {},
}


def _run_window_obfuscate(params: Dict[str, Any], task_jobs: int) -> Tuple[Any, dict]:
    """Obfuscate one window of a BLIF circuit (resumable windowed pipeline).

    The windowed campaign fans one such job per window over the worker
    pool; each job re-derives the (deterministic) window decomposition from
    the BLIF source, obfuscates its assigned window, and persists a fully
    self-describing payload — the camouflaged window as BLIF text plus the
    serialised true configuration — so a resumed campaign can stitch
    without re-running finished windows.  ``task_jobs`` is unused: a
    window's GA runs in the job's process (see
    :func:`~repro.flow.target.obfuscate_window`).
    """
    from ..flow.target import obfuscate_window
    from ..ga.engine import GAParameters
    from ..netlist.blif import write_blif
    from ..netlist.window import extract_windows, window_subnetlist

    for name, runs in _RETIRED_WINDOW_PARAMS.items():
        value = params.get(name, runs)
        if value != runs:
            raise CampaignError(
                f"{params['path']}: window param {name!r} is {value!r}, but "
                f"only {runs!r} still runs — rebuild the campaign spec"
            )
    netlist = _read_blif_workload(params["path"])
    windows = extract_windows(
        netlist,
        max_inputs=int(params.get("max_window_inputs", 8)),
        max_instances=int(params.get("max_window_instances", 48)),
        strategy=params.get("windowing"),
    )
    expected = params.get("num_windows")
    if expected is not None and int(expected) != len(windows):
        raise CampaignError(
            f"{params['path']}: circuit decomposes into {len(windows)} windows "
            f"but the spec was built for {expected}; the BLIF changed — "
            f"rebuild the campaign spec"
        )
    index = int(params["index"])
    if not 0 <= index < len(windows):
        raise CampaignError(f"window index {index} out of range")
    window = windows[index]
    parameters = GAParameters(
        population_size=int(params.get("population", 4)),
        generations=int(params.get("generations", 2)),
        seed=int(params.get("seed", 1)),
    )
    record = obfuscate_window(
        window_subnetlist(netlist, window),
        window,
        decoys=int(params.get("decoys", 1)),
        seed=int(params.get("seed", 1)) + window.index,
        ga_parameters=parameters,
        fitness_effort=params.get("fitness_effort", "fast"),
        final_effort=params.get("final_effort", "fast"),
        verify=bool(params.get("verify", True)),
    )
    payload = {
        "index": window.index,
        "inputs": window.num_inputs,
        "outputs": window.num_outputs,
        "instances": window.num_instances,
        "num_viable": record.num_viable,
        "synthesized_area": record.synthesized_area,
        "camouflaged_area": record.camouflaged_area,
        "verification_ok": record.verification_ok,
        "telemetry": (
            record.telemetry.to_dict() if record.telemetry is not None else {}
        ),
        "camo_blif": write_blif(record.netlist),
        # Keyed by output net: BLIF .gate lines carry no instance names, so
        # the net is the identity that survives the serialisation round trip.
        "true_config": {
            record.netlist.instance(name).output: {
                "vars": table.num_vars,
                "bits": table.bits,
            }
            for name, table in record.true_configuration.items()
        },
    }
    return record, payload


def _run_probe(params: Dict[str, Any], task_jobs: int) -> Tuple[Any, dict]:
    """Self-test job: a cheap, deterministic workload for chaos testing.

    Computes a digest of its own parameters (so the payload proves which
    parameters actually executed) with two optional behaviours the fault
    and recovery tests rely on:

    * ``sleep`` — hold the job open for the given number of seconds, so
      lease/heartbeat behaviour can be observed mid-flight.
    * ``fail_marker`` — a file path; when the file does not exist yet the
      job creates it and raises :class:`OSError` (a *transient* failure).
      The retried attempt finds the marker and succeeds, which exercises
      the retry/backoff machinery end to end without any randomness.
    """
    marker = params.get("fail_marker")
    if marker and not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as handle:
            handle.write(f"{os.getpid()}\n")
        raise OSError(f"probe failing transiently (marker {marker} created)")
    delay = float(params.get("sleep", 0.0))
    if delay > 0:
        time.sleep(delay)
    blob = json.dumps(
        {key: value for key, value in params.items() if key != "fail_marker"},
        sort_keys=True,
    )
    digest = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    payload = {"digest": digest, "value": params.get("value", 0)}
    return digest, payload


def _read_blif_workload(path: str):
    """Parse a BLIF circuit over the standard cell library."""
    from ..netlist.blif import read_blif
    from ..netlist.library import standard_cell_library

    with open(path, "r", encoding="utf-8") as handle:
        return read_blif(handle.read(), standard_cell_library())


def window_record_from_payload(payload: Dict[str, Any], window) -> "object":
    """Rebuild a :class:`~repro.flow.target.WindowRecord` from job state.

    The camouflaged window netlist is re-parsed from the persisted BLIF text
    (over the camouflage-extended cell library) and the true configuration
    from its serialised truth tables, so cached window jobs stitch exactly
    like freshly executed ones.
    """
    from ..camo.library import default_camouflage_library
    from ..flow.target import WindowRecord
    from ..logic.truthtable import TruthTable
    from ..netlist.blif import read_blif
    from ..netlist.library import standard_cell_library

    base = standard_cell_library()
    library = default_camouflage_library(base).as_cell_library(include=base)
    netlist = read_blif(payload["camo_blif"], library)
    true_configuration = {}
    for net, entry in payload["true_config"].items():
        driver = netlist.driver_of(net)
        if driver is None:
            raise CampaignError(
                f"window state is corrupt: configured net {net!r} has no "
                f"driver in the persisted camouflaged window"
            )
        true_configuration[driver.name] = TruthTable(
            int(entry["vars"]), int(entry["bits"])
        )
    telemetry_dict = payload.get("telemetry")
    return WindowRecord(
        window=window,
        netlist=netlist,
        true_configuration=true_configuration,
        num_viable=int(payload.get("num_viable", 1)),
        synthesized_area=float(payload.get("synthesized_area", 0.0)),
        camouflaged_area=float(payload.get("camouflaged_area", 0.0)),
        verification_ok=bool(payload.get("verification_ok", True)),
        telemetry=(
            RunTelemetry.from_dict(telemetry_dict) if telemetry_dict else None
        ),
    )


JOB_KINDS: Dict[str, Callable[[Dict[str, Any], int], Tuple[Any, dict]]] = {
    "table1_row": _run_table1_row,
    "figure4a": _run_figure4a,
    "figure4b": _run_figure4b,
    "attack": _run_attack,
    "decamouflage": _run_decamouflage,
    "random_camo": _run_random_camo,
    "window_obfuscate": _run_window_obfuscate,
    "probe": _run_probe,
}


# ------------------------------------------------------------------ #
# Spec
# ------------------------------------------------------------------ #
@dataclass
class CampaignSpec:
    """A named, ordered collection of campaign jobs."""

    name: str
    jobs: List[CampaignJob] = field(default_factory=list)

    def __post_init__(self):
        seen = set()
        for job in self.jobs:
            if job.kind not in JOB_KINDS:
                raise CampaignError(
                    f"unknown job kind {job.kind!r}; available: {sorted(JOB_KINDS)}"
                )
            if job.job_id in seen:
                raise CampaignError(f"duplicate job id {job.job_id!r}")
            seen.add(job.job_id)
            job.fingerprint()  # rejects non-JSON params at build time

    # -------------------------------------------------------------- #
    # Builders
    # -------------------------------------------------------------- #
    @classmethod
    def table1(
        cls,
        profile,
        families: Sequence[Tuple[str, int]],
        seed: int = 1,
        verify: bool = True,
        name: str = "table1",
    ) -> "CampaignSpec":
        """One ``table1_row`` job per (family, count) configuration."""
        profile_data = _profile_to_dict(profile)
        jobs = [
            CampaignJob(
                job_id=f"table1_{family}_x{count}",
                kind="table1_row",
                params={
                    "family": family,
                    "count": count,
                    "profile": profile_data,
                    "seed": seed,
                    "verify": verify,
                },
            )
            for family, count in families
        ]
        return cls(name=name, jobs=jobs)

    @classmethod
    def figure4(cls, profile, seed: int = 11, name: str = "figure4") -> "CampaignSpec":
        """The Fig. 4a histogram job plus the Fig. 4b convergence job."""
        profile_data = _profile_to_dict(profile)
        return cls(
            name=name,
            jobs=[
                CampaignJob("figure4a", "figure4a", {"profile": profile_data, "seed": seed}),
                CampaignJob("figure4b", "figure4b", {"profile": profile_data, "seed": seed}),
            ],
        )

    @classmethod
    def attacks(
        cls,
        families: Sequence[Tuple[str, int]],
        population: int = 4,
        generations: int = 1,
        seed: int = 1,
        max_queries: int = 256,
        name: str = "attacks",
    ) -> "CampaignSpec":
        """One oracle-guided attack job per workload configuration."""
        jobs = [
            CampaignJob(
                job_id=f"attack_{family}_x{count}",
                kind="attack",
                params={
                    "family": family,
                    "count": count,
                    "population": population,
                    "generations": generations,
                    "seed": seed,
                    "max_queries": max_queries,
                },
            )
            for family, count in families
        ]
        return cls(name=name, jobs=jobs)

    @classmethod
    def adversary(
        cls,
        families: Sequence[Tuple[str, int]],
        population: int = 4,
        generations: int = 1,
        seed: int = 1,
        fraction: float = 0.5,
        name: str = "adversary",
        decamouflage: bool = True,
        random_camo: bool = True,
    ) -> "CampaignSpec":
        """The adversary-side matrix: CEGAR hardness + random-camo baseline.

        One ``decamouflage`` job (plausibility-oracle hardness sweep) and
        one ``random_camo`` job (the paper's Section-I negative baseline)
        per workload configuration.
        """
        jobs: List[CampaignJob] = []
        for family, count in families:
            if decamouflage:
                jobs.append(
                    CampaignJob(
                        job_id=f"decamo_{family}_x{count}",
                        kind="decamouflage",
                        params={
                            "family": family,
                            "count": count,
                            "population": population,
                            "generations": generations,
                            "seed": seed,
                        },
                    )
                )
            if random_camo:
                jobs.append(
                    CampaignJob(
                        job_id=f"randcamo_{family}_x{count}",
                        kind="random_camo",
                        params={
                            "family": family,
                            "count": count,
                            "fraction": fraction,
                            "seed": seed,
                        },
                    )
                )
        return cls(name=name, jobs=jobs)

    @classmethod
    def windowed(
        cls,
        path: str,
        max_window_inputs: int = 8,
        max_window_instances: int = 48,
        decoys: int = 1,
        seed: int = 1,
        population: int = 4,
        generations: int = 2,
        verify: bool = True,
        name: Optional[str] = None,
        windowing: Optional[str] = None,
    ) -> "CampaignSpec":
        """One ``window_obfuscate`` job per window of a BLIF circuit.

        The window decomposition is deterministic, so the builder, every
        worker, and every resumed run agree on the job graph; the window
        count is baked into the params so a changed BLIF fails loudly
        instead of stitching stale windows.

        ``windowing`` names the window partition (``None`` keeps the
        greedy default and leaves the name out of the params, so job
        fingerprints match specs built before ``hardness`` existed).
        """
        from ..netlist.window import extract_windows

        netlist = _read_blif_workload(path)
        windows = extract_windows(
            netlist,
            max_inputs=max_window_inputs,
            max_instances=max_window_instances,
            strategy=windowing,
        )
        common = {
            "path": path,
            "max_window_inputs": max_window_inputs,
            "max_window_instances": max_window_instances,
            "num_windows": len(windows),
            "decoys": decoys,
            "seed": seed,
            "population": population,
            "generations": generations,
            "verify": verify,
        }
        if windowing is not None:
            common["windowing"] = windowing
        jobs = [
            CampaignJob(
                job_id=f"window_{window.index:03d}",
                kind="window_obfuscate",
                params={**common, "index": window.index},
            )
            for window in windows
        ]
        return cls(name=name or f"windowed_{netlist.name}", jobs=jobs)

    def merged(self, other: "CampaignSpec", name: Optional[str] = None) -> "CampaignSpec":
        """Concatenate two specs (job ids must stay unique)."""
        return CampaignSpec(name=name or self.name, jobs=self.jobs + other.jobs)

    # -------------------------------------------------------------- #
    # JSON round trip
    # -------------------------------------------------------------- #
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe encoding of the spec."""
        return {
            "name": self.name,
            "jobs": [
                {"job_id": job.job_id, "kind": job.kind, "params": job.params}
                for job in self.jobs
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CampaignSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        try:
            jobs = [
                CampaignJob(entry["job_id"], entry["kind"], dict(entry.get("params", {})))
                for entry in data["jobs"]
            ]
            return cls(name=str(data["name"]), jobs=jobs)
        except (KeyError, TypeError) as exc:
            raise CampaignError(f"malformed campaign spec: {exc}") from exc


# ------------------------------------------------------------------ #
# Results
# ------------------------------------------------------------------ #
@dataclass
class JobResult:
    """Outcome of one campaign job.

    ``value`` is the rich in-memory result (``None`` for jobs restored from
    on-disk state or not yet executed); ``payload`` is the JSON-safe summary
    that is persisted and rendered into artifacts.
    """

    job_id: str
    kind: str
    status: str  # "ok" | "error" | "timed_out" | "pending"
    seconds: float = 0.0
    payload: Dict[str, Any] = field(default_factory=dict)
    cached: bool = False
    error: str = ""
    value: Any = None
    #: The original exception of an "error" result (not persisted; wrappers
    #: chain it so library callers keep the real type and traceback).
    exception: Optional[BaseException] = None
    #: How many attempts this invocation spent on the job (1 = first try
    #: succeeded; 0 = cached/pending) and which store owner ran the last
    #: one — the per-job evidence trail behind "every job ran exactly once".
    attempts: int = 0
    owner: str = ""

    @property
    def ok(self) -> bool:
        """True when the job finished successfully (fresh or cached)."""
        return self.status == "ok"


@dataclass
class CampaignResult:
    """All job results of one campaign run, in spec order."""

    name: str
    results: List[JobResult]
    total_seconds: float
    jobs: int = 1
    #: Runner-level robustness counters (retries, lease traffic, worker
    #: crashes, fired faults).  Kept separate from :meth:`telemetry` — that
    #: record is a pure function of the job payloads, so chaos runs still
    #: produce byte-identical job artifacts.
    robustness: Dict[str, float] = field(default_factory=dict)

    @property
    def completed(self) -> List[JobResult]:
        """Successfully finished jobs (fresh and cached)."""
        return [result for result in self.results if result.ok]

    @property
    def executed(self) -> List[JobResult]:
        """Jobs actually run in this invocation (not restored from state)."""
        return [result for result in self.results if result.ok and not result.cached]

    @property
    def cached(self) -> List[JobResult]:
        """Jobs restored from the on-disk campaign state."""
        return [result for result in self.results if result.cached]

    @property
    def failed(self) -> List[JobResult]:
        """Jobs that raised — including budget exhaustions ("timed_out")."""
        return [
            result
            for result in self.results
            if result.status in ("error", "timed_out")
        ]

    @property
    def pending(self) -> List[JobResult]:
        """Jobs not attempted (e.g. beyond a ``limit``)."""
        return [result for result in self.results if result.status == "pending"]

    @property
    def all_ok(self) -> bool:
        """True when every job of the spec finished successfully."""
        return all(result.ok for result in self.results)

    def result_for(self, job_id: str) -> JobResult:
        """Return the result of one job by id."""
        for result in self.results:
            if result.job_id == job_id:
                return result
        raise KeyError(f"no result for job {job_id!r}")

    # -------------------------------------------------------------- #
    # Artifacts
    # -------------------------------------------------------------- #
    def bench_payload(self) -> Dict[str, Any]:
        """The header of the ``--json`` artifact, also written alone as
        ``BENCH_campaign_<name>.json``.

        ``total_seconds`` / ``mean_seconds`` sum the *recorded per-job*
        seconds over every completed job — cached jobs contribute the
        seconds persisted when they actually ran — so they measure the
        campaign's compute cost and stay comparable between fresh and
        partially-cached invocations.  The wall clock of this invocation is
        reported separately (``wall_seconds``, informational).
        """
        completed = self.completed
        total = sum(result.seconds for result in completed)
        return {
            "name": f"campaign_{self.name}",
            "total_seconds": total,
            "mean_seconds": total / len(completed) if completed else 0.0,
            "wall_seconds": self.total_seconds,
            "jobs": self.jobs,
            "campaign": {
                "executed": len(self.executed),
                "cached": len(self.cached),
                "failed": len(self.failed),
                "pending": len(self.pending),
            },
            "job_seconds": {
                result.job_id: result.seconds for result in completed
            },
            "telemetry": self.telemetry().to_dict()["scopes"],
            "robustness": dict(sorted(self.robustness.items())),
        }

    def telemetry(self, label: str = "") -> RunTelemetry:
        """Merge every completed job's persisted telemetry into one record.

        Counters sum across jobs scope by scope, so the campaign-level
        record answers "how much work did this campaign do" (solver
        conflicts, synthesis passes, attack queries, ...) and is the
        ``"telemetry"`` key of the ``--json`` artifact's header.
        """
        records = [
            RunTelemetry.from_dict(result.payload["telemetry"])
            for result in self.completed
            if result.payload.get("telemetry")
        ]
        return RunTelemetry(label=label or f"campaign_{self.name}").merged(*records)

    def to_json(self) -> str:
        """Full campaign result as a JSON document."""
        document = dict(self.bench_payload())
        document["results"] = [
            {
                "job_id": result.job_id,
                "kind": result.kind,
                "status": result.status,
                "cached": result.cached,
                "seconds": result.seconds,
                "error": result.error,
                "payload": result.payload,
            }
            for result in self.results
        ]
        return json.dumps(document, indent=2, sort_keys=True, default=str)

    def to_csv(self) -> str:
        """Flat CSV: one row per job, numeric payload fields as columns."""
        flattened = [
            _flatten_numeric(result.payload) for result in self.results
        ]
        keys: List[str] = sorted({key for row in flattened for key in row})
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["job_id", "kind", "status", "cached", "seconds"] + keys)
        for result, row in zip(self.results, flattened):
            writer.writerow(
                [
                    result.job_id,
                    result.kind,
                    result.status,
                    int(result.cached),
                    f"{result.seconds:.4f}",
                ]
                + [row.get(key, "") for key in keys]
            )
        return buffer.getvalue()

    def write_artifacts(
        self,
        json_path: Optional[str] = None,
        csv_path: Optional[str] = None,
        bench_dir: Optional[str] = None,
    ) -> List[str]:
        """Write the requested artifact files; returns the paths written."""
        written: List[str] = []
        if json_path:
            _atomic_write(json_path, self.to_json() + "\n")
            written.append(json_path)
        if csv_path:
            _atomic_write(csv_path, self.to_csv())
            written.append(csv_path)
        if bench_dir:
            os.makedirs(bench_dir, exist_ok=True)
            path = os.path.join(bench_dir, f"BENCH_campaign_{self.name}.json")
            _atomic_write(
                path,
                json.dumps(self.bench_payload(), indent=2, sort_keys=True) + "\n",
            )
            written.append(path)
        return written


def _flatten_numeric(payload: Dict[str, Any], prefix: str = "") -> Dict[str, Any]:
    """Flatten nested payload dicts into dot-joined scalar columns."""
    flat: Dict[str, Any] = {}
    for key, value in sorted(payload.items()):
        label = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten_numeric(value, prefix=f"{label}."))
        elif isinstance(value, (int, float, bool, str)):
            flat[label] = value
    return flat


def _atomic_write(path: str, text: str) -> None:
    """Write a file via rename so readers never see a torn state file."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    temp_path = f"{path}.tmp.{os.getpid()}"
    with open(temp_path, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(temp_path, path)


# ------------------------------------------------------------------ #
# Runner
# ------------------------------------------------------------------ #
def _portable_exception(exc: BaseException) -> Optional[BaseException]:
    """The exception iff it survives a pickle round trip (else None).

    A JobResult may cross the worker-process boundary; an unpicklable
    exception riding along would crash the pool result transfer — the exact
    sweep-wide failure the per-job try/except exists to prevent.  Such
    exceptions are reported through the ``error`` string only.
    """
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return None


@contextlib.contextmanager
def _solve_budget_installed(budget_spec: str) -> Iterator[None]:
    """Install ``budget_spec`` as ``REPRO_SOLVE_BUDGET`` for the block.

    ``budget_spec`` is a :meth:`~repro.sat.solver.SolveBudget.to_spec`
    spec, or ``""`` to leave the environment as it is.  The previous value,
    or its absence, comes back on exit.
    """
    if not budget_spec:
        yield
        return
    previous = os.environ.get(BUDGET_ENV_VAR)
    os.environ[BUDGET_ENV_VAR] = budget_spec
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop(BUDGET_ENV_VAR, None)
        else:
            os.environ[BUDGET_ENV_VAR] = previous


def _execute_job_task(task: Tuple) -> JobResult:
    """Worker task: run one campaign job (module-level so it pickles).

    ``task`` is ``(job, task_jobs, capture_errors, budget_spec,
    traceparent)``.

    With ``capture_errors`` a failure becomes an "error" JobResult (a sweep
    with on-disk state must record its siblings); without it the exception
    propagates, which is how fail-fast wrappers abort a sweep immediately.

    ``budget_spec`` is a solve-budget spec
    (:meth:`~repro.sat.solver.SolveBudget.to_spec`), or ``""`` for none: it
    is installed in the executing process's environment for the duration
    of the job, which is how the runner escalates budgets per retry attempt
    without touching the job's fingerprinted parameters.

    ``traceparent`` is the job span's W3C traceparent, or ``""`` for none:
    with tracing active the attempt runs inside an ``attempt`` span
    parented under the job's deterministic span, so attempts recorded by
    any process — local pool worker or remote fleet agent — stitch into
    one trace.  The span's start record is flushed *before* the chaos kill
    hook runs: a SIGKILLed attempt stays visible in the trace as an
    unfinished span.
    """
    job, task_jobs, capture_errors, budget_spec, traceparent = task
    with attach_context(traceparent):
        with obs_trace.span("attempt", job=job.job_id, kind=job.kind):
            if faults_enabled():
                # Chaos hook: a matching ``worker_kill`` fault SIGKILLs this
                # process right here, at job start — the hard-crash case
                # supervision, leases, and resumable state exist for.
                maybe_kill_process(job.job_id)
            with _solve_budget_installed(budget_spec):
                start = time.perf_counter()
                try:
                    value, payload = JOB_KINDS[job.kind](job.params, task_jobs)
                except Exception as exc:
                    if not capture_errors:
                        raise
                    return JobResult(
                        job_id=job.job_id,
                        kind=job.kind,
                        status="error",
                        seconds=time.perf_counter() - start,
                        error=f"{type(exc).__name__}: {exc}",
                        exception=_portable_exception(exc),
                    )
                return JobResult(
                    job_id=job.job_id,
                    kind=job.kind,
                    status="ok",
                    seconds=time.perf_counter() - start,
                    payload=payload,
                    value=value,
                )


class _LeaseKeeper:
    """Background heartbeat for the leases a runner or worker agent holds.

    ``held`` maps each job id to what ``beat`` refreshes: a :class:`Lease`
    of the runner's :class:`JobStore`, or the job id the service worker
    agent heartbeats over HTTP.  A daemon thread beats every held lease
    each ``interval`` (TTL/3), so a lease only goes stale after three
    consecutive missed heartbeats — i.e. when the owning process is
    genuinely wedged or dead, not merely busy.  A lease whose beat raises
    :class:`LeaseLost` (stolen after an expiry the heartbeat was too late
    to prevent) is dropped *and flagged*: the holder consults
    :meth:`is_lost` before committing the job's result, so work finished
    under a stolen lease is discarded instead of double-written over the
    thief's state.
    """

    def __init__(
        self, beat: Callable[[Any], Any], interval: float, held: Dict[str, Any]
    ):
        self._beat = beat
        self._interval = interval
        self._held = dict(held)
        self._lost_jobs: set = set()
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def remove(self, job_id: str) -> None:
        with self._lock:
            self._held.pop(job_id, None)

    def is_lost(self, job_id: str) -> bool:
        """Did a heartbeat on this job's lease fail since it was added?"""
        with self._lock:
            return job_id in self._lost_jobs

    def __enter__(self) -> "_LeaseKeeper":
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=3 * self._interval)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            with self._lock:
                held = list(self._held.items())
            for job_id, handle in held:
                try:
                    self._beat(handle)
                except LeaseLost:
                    with self._lock:
                        self._lost_jobs.add(job_id)
                    self.remove(job_id)
                except OSError:
                    pass  # transient I/O: the next beat retries


class JobBook:
    """The per-job lifecycle of one campaign, shared by runner and service.

    The local :class:`CampaignRunner` and the service coordinator make
    every per-job decision here, so a spec runs the same way on both:
    which jobs are finished (by this run, or by a state file whose
    fingerprint matches), each attempt's number and solve budget (doubled
    per failure), whether a failure retries after backoff or ends the job
    as ``"error"`` / ``"timed_out"``, the robustness counters and the job
    spans.  Each side keeps its transport: leases, execution, progress.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        state_dir: Optional[str] = None,
        retry_policy: Optional[RetryPolicy] = None,
        solve_budget: Optional[SolveBudget] = None,
    ):
        self.spec = spec
        self.state_dir = state_dir
        self.retry_policy = retry_policy or RetryPolicy()
        self.solve_budget = (
            solve_budget if solve_budget is not None else SolveBudget.from_environment()
        )
        #: Robustness counters (see :attr:`CampaignResult.robustness`).
        self.counters: Dict[str, float] = {}
        #: The trace and campaign span job spans join ("" = untraced).
        self.trace_id = ""
        self.campaign_span_id = ""
        self._results: Dict[str, JobResult] = {}
        self._failures: Dict[str, int] = {}
        self._not_before: Dict[str, float] = {}
        self._started: Dict[str, float] = {}

    def bump(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    # -------------------------------------------------------------- #
    # State files: <state_dir>/<job_id>.json, written atomically
    # -------------------------------------------------------------- #
    def load(self, job: CampaignJob) -> Optional[JobResult]:
        """Restore a completed job from disk (None = must run)."""
        if self.state_dir is None:
            return None
        path = os.path.join(self.state_dir, f"{job.job_id}.json")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(data, dict):
            # Valid JSON but not a state object: corrupt, recompute.
            return None
        if data.get("fingerprint") != job.fingerprint():
            # The spec changed under this job id; the stale result must not
            # short-circuit the new parameters.
            return None
        if data.get("status") != "ok":
            return None
        return JobResult(
            job_id=job.job_id,
            kind=job.kind,
            status="ok",
            seconds=float(data.get("seconds", 0.0)),
            payload=dict(data.get("payload", {})),
            cached=True,
            attempts=int(data.get("attempts", 0)),
            owner=str(data.get("owner", "")),
        )

    def save(self, job: CampaignJob, result: JobResult) -> None:
        if self.state_dir is None or not result.ok:
            return
        document = {
            "job_id": job.job_id,
            "kind": job.kind,
            "fingerprint": job.fingerprint(),
            "status": result.status,
            "seconds": result.seconds,
            "payload": result.payload,
            "attempts": result.attempts,
            "owner": result.owner,
        }
        text = json.dumps(document, indent=2, sort_keys=True, default=str) + "\n"
        if faults_enabled():
            # Chaos hook: a matching ``torn_state`` fault persists only the
            # first half of the document — the partial flush a crash
            # mid-write would leave.  :meth:`load` must reject it and
            # re-run exactly this job on the next invocation.
            text = corrupt_text("torn_state", text, job.job_id)
        _atomic_write(os.path.join(self.state_dir, f"{job.job_id}.json"), text)

    # -------------------------------------------------------------- #
    # Lifecycle
    # -------------------------------------------------------------- #
    def finished(self, job: CampaignJob) -> Optional[JobResult]:
        """The job's final result — this run's or its state file's — or None."""
        result = self._results.get(job.job_id)
        if result is None:
            result = self.load(job)
            if result is not None:
                self._results[job.job_id] = result
        return result

    def backoff(self, job_id: str) -> float:
        """Seconds until ``job_id`` may be attempted again (0 = now)."""
        return max(0.0, self._not_before.get(job_id, 0.0) - time.monotonic())

    def begin(self, job_id: str) -> Tuple[int, str]:
        """Start an attempt: its number and its solve-budget spec ("" = none)."""
        self._started.setdefault(job_id, time.time())
        failures = self._failures.get(job_id, 0)
        if self.solve_budget is None:
            return failures + 1, ""
        budget = self.solve_budget
        if failures:
            budget = budget.scaled(2.0 ** failures)
        return failures + 1, budget.to_spec()

    def succeed(self, job: CampaignJob, result: JobResult, owner: str = "") -> None:
        """Commit a successful attempt: persist its state, finish the job."""
        result.attempts = self._failures.get(job.job_id, 0) + 1
        result.owner = owner
        self.save(job, result)
        self._finish(job.job_id, result)

    def fail(
        self, job: CampaignJob, result: JobResult, owner: str = ""
    ) -> Optional[float]:
        """Account a failed attempt: the retry delay, or None when terminal.

        ``result.attempts`` becomes this attempt's number.  A terminal
        ``result`` is the job's final result.
        """
        job_id = job.job_id
        attempt = self._failures[job_id] = self._failures.get(job_id, 0) + 1
        result.attempts = attempt
        verdict = classify_failure(result.exception, result.error)
        self.bump(f"failures_{verdict}")
        if verdict == "transient" and self.retry_policy.should_retry(attempt):
            delay = self.retry_policy.delay(job_id, attempt)
            self._not_before[job_id] = time.monotonic() + delay
            self.bump("retries")
            if self.trace_id:
                with attach_context(self.job_traceparent(job_id)):
                    obs_trace.event(
                        "retry",
                        job=job_id,
                        attempt=attempt + 1,
                        delay=round(delay, 4),
                        error=result.error,
                    )
            return delay
        result.owner = owner
        if (
            isinstance(result.exception, SolveBudgetExceeded)
            or result.error.split(":", 1)[0].strip() == "SolveBudgetExceeded"
        ):
            result.status = "timed_out"
            self.bump("timed_out")
        self._finish(job_id, result)
        return None

    def _finish(self, job_id: str, result: JobResult) -> None:
        """Record the job's final result and emit its span."""
        self._results[job_id] = result
        started = self._started.pop(job_id, None)
        if self.trace_id and started is not None:
            obs_trace.record_span(
                "job",
                span_id=job_span_id(self.trace_id, job_id),
                start=started,
                duration=max(0.0, time.time() - started),
                parent=self.campaign_span_id,
                trace_id=self.trace_id,
                job=job_id,
                status=result.status,
            )

    def job_traceparent(self, job_id: str) -> str:
        """The traceparent attempt spans for ``job_id`` parent under."""
        if not self.trace_id:
            return ""
        return format_traceparent(self.trace_id, job_span_id(self.trace_id, job_id))

    def results(self) -> List[JobResult]:
        """Every job's result in spec order (unfinished jobs are pending)."""
        return [
            self.finished(job)
            or JobResult(job_id=job.job_id, kind=job.kind, status="pending")
            for job in self.spec.jobs
        ]

    def robustness(self, stores: Iterable[JobStore] = ()) -> Dict[str, float]:
        """The non-zero counters, plus the lease traffic of ``stores``."""
        counters = Counter(self.counters)
        for store in stores:
            counters.update(
                lease_claims=store.claims,
                lease_conflicts=store.claim_conflicts,
                lease_reclaims=store.reclaims,
            )
        return {key: value for key, value in sorted(counters.items()) if value}


class CampaignRunner:
    """Execute a :class:`CampaignSpec` over the worker pool, resumably.

    With a ``state_dir`` every successful job writes
    ``<state_dir>/<job_id>.json`` (atomic rename); a later run loads those
    files, verifies the parameter fingerprint, and skips matching jobs.
    Failed jobs are never persisted, so they retry on the next run.

    A ``state_dir`` also turns the directory into a lease-based
    :class:`~repro.jobstore.JobStore`: several concurrent runner processes
    can share it and every pending job is executed exactly once — claiming
    is atomic, held leases are heartbeated, and a crashed peer's lease is
    reclaimed so its job re-runs from the last persisted state.

    Transient failures (crashed workers, exhausted solve budgets, I/O
    errors) are retried under ``retry_policy`` with capped exponential
    backoff; a solve budget (``solve_budget`` or ``REPRO_SOLVE_BUDGET``)
    is doubled on every retry and a job still timing out when attempts run
    out finishes as ``"timed_out"`` instead of looping forever (see
    :class:`JobBook`).
    """

    #: Poll interval while every remaining job is leased by a live peer.
    PEER_POLL_SECONDS = 0.1

    def __init__(
        self,
        spec: CampaignSpec,
        state_dir: Optional[str] = None,
        jobs: Optional[int] = None,
        progress: Optional[Callable[[str], None]] = None,
        retry_policy: Optional[RetryPolicy] = None,
        solve_budget: Optional[SolveBudget] = None,
        lease_ttl: Optional[float] = None,
    ):
        self.spec = spec
        self.state_dir = state_dir
        self.jobs = resolve_jobs(jobs)
        self._progress = progress or (lambda message: None)
        self._retry_policy = retry_policy
        self._solve_budget = solve_budget
        self._lease_ttl = lease_ttl

    # -------------------------------------------------------------- #
    # Tracing
    # -------------------------------------------------------------- #
    def _campaign_span(self, book: JobBook):
        """This invocation's campaign span, joined to the persisted trace.

        With a ``state_dir`` the first traced invocation persists its
        trace context to ``<state_dir>/trace.json``; later invocations
        (resumes, concurrent peers) adopt it as their parent, so every
        attempt across crashes and restarts lands in *one* trace — the
        deterministic per-job span ids do the rest of the stitching.
        """
        if not tracing_enabled():
            return obs_trace.span("campaign")  # the shared no-op
        parent = ""
        trace_path = None
        if self.state_dir is not None:
            os.makedirs(self.state_dir, exist_ok=True)
            trace_path = os.path.join(self.state_dir, "trace.json")
            try:
                with open(trace_path, "r", encoding="utf-8") as handle:
                    parent = str(json.load(handle).get("traceparent", ""))
            except (OSError, ValueError):
                parent = ""
        span = obs_trace.span(
            "campaign", parent=parent, campaign=self.spec.name, jobs=self.jobs
        )
        book.trace_id, book.campaign_span_id = span.trace_id, span.span_id
        if trace_path is not None and not parent:
            _atomic_write(
                trace_path,
                json.dumps(
                    {
                        "traceparent": format_traceparent(
                            span.trace_id, span.span_id
                        )
                    }
                )
                + "\n",
            )
        return span

    # -------------------------------------------------------------- #
    # Execution
    # -------------------------------------------------------------- #
    def run(
        self, limit: Optional[int] = None, fail_fast: bool = False
    ) -> CampaignResult:
        """Run the campaign; ``limit`` caps the number of jobs executed.

        Cached jobs never count against ``limit`` (they cost nothing), so a
        limited run always makes forward progress until the campaign is
        complete.

        With ``fail_fast`` the first job failure propagates immediately
        (remaining serial jobs do not run; in-flight parallel work is
        abandoned) instead of being recorded as an "error" result — the
        pre-campaign sweep-loop behaviour the ``table1``/``figure4``
        wrappers preserve.  Fail-fast also disables the retry machinery:
        the caller asked for the first exception, not for healing.

        Execution proceeds in *rounds*: each round claims every currently
        runnable job (not backed off, not leased by a live peer), fans the
        claims over the worker pool, and checkpoints results as they
        stream back.  Failed jobs re-enter later rounds while retries
        remain; jobs leased by peers are polled until the peer's state
        lands (adopted as cached) or its lease goes stale (reclaimed).
        """
        book = JobBook(
            self.spec, self.state_dir, self._retry_policy, self._solve_budget
        )
        with self._campaign_span(book):
            return self._run_traced(book, limit=limit, fail_fast=fail_fast)

    def _run_traced(
        self, book: JobBook, limit: Optional[int] = None, fail_fast: bool = False
    ) -> CampaignResult:
        """The body of :meth:`run` (inside this invocation's trace span)."""
        start = time.perf_counter()
        pending: List[CampaignJob] = []
        for job in self.spec.jobs:
            if book.finished(job) is not None:
                self._progress(f"{job.job_id}: cached (state matches)")
            else:
                pending.append(job)

        if limit is not None and limit >= 0:
            pending = pending[:limit]

        store: Optional[JobStore] = None
        if self.state_dir is not None and pending:
            store = JobStore(self.state_dir, lease_ttl=self._lease_ttl)

        if pending:
            with WorkerPool(_execute_job_task, jobs=self.jobs) as pool:
                self._run_rounds(book, pending, pool, store, fail_fast=fail_fast)
            book.bump("worker_crashes", pool.worker_crashes)
            book.bump("pool_restarts", pool.pool_restarts)

        if faults_enabled():
            for point, count in sorted(fired_counts().items()):
                book.bump(f"fault_{point}", count)

        return CampaignResult(
            name=self.spec.name,
            results=book.results(),
            total_seconds=time.perf_counter() - start,
            jobs=self.jobs,
            robustness=book.robustness([store] if store is not None else []),
        )

    def _run_rounds(
        self,
        book: JobBook,
        pending: List[CampaignJob],
        pool: WorkerPool,
        store: Optional[JobStore],
        fail_fast: bool,
    ) -> None:
        """Drive ``pending`` to completion through claim/execute rounds."""
        capture_errors = not fail_fast
        owner = store.owner if store is not None else ""
        remaining: List[CampaignJob] = list(pending)

        while remaining:
            # A peer sharing the store may have finished some jobs since the
            # last round: adopt their persisted state instead of re-claiming.
            if store is not None:
                for job in list(remaining):
                    if book.finished(job) is not None:
                        remaining.remove(job)
                        self._progress(
                            f"{job.job_id}: cached (completed by a peer)"
                        )
            if not remaining:
                return

            runnable: List[CampaignJob] = []
            leases: Dict[str, Lease] = {}
            for job in remaining:
                if book.backoff(job.job_id):
                    continue  # still backing off
                if store is not None:
                    # Claim under the job's trace context so a reclaim of a
                    # dead owner's lease is recorded under the job's span.
                    with attach_context(book.job_traceparent(job.job_id)):
                        lease = store.claim(job.job_id)
                    if lease is None:
                        continue  # a live peer holds it; poll again later
                    leases[job.job_id] = lease
                runnable.append(job)

            if not runnable:
                # Everything left is backed off or peer-held: sleep until
                # the earliest backoff expires (or one poll interval).
                waits = [
                    wait
                    for wait in (book.backoff(job.job_id) for job in remaining)
                    if wait
                ]
                if waits:
                    time.sleep(min(max(min(waits), 0.01), self.PEER_POLL_SECONDS))
                else:
                    time.sleep(self.PEER_POLL_SECONDS)
                continue

            # Mirror the historical sweep split: concurrent rows share the
            # worker budget, any leftover is handed down to each job's own
            # parallelism (nested pools are supported).
            parallel = self.jobs > 1 and len(runnable) > 1
            task_jobs = max(1, self.jobs // len(runnable)) if parallel else self.jobs
            if parallel:
                for job in runnable:
                    self._progress(f"{job.job_id}: queued (jobs={self.jobs})")
            tasks = [
                (
                    job,
                    task_jobs,
                    capture_errors,
                    book.begin(job.job_id)[1],
                    book.job_traceparent(job.job_id),
                )
                for job in runnable
            ]

            completed: Dict[str, JobResult] = {}
            crashed: Optional[WorkerCrashed] = None
            crashed_position = -1
            keeper = (
                _LeaseKeeper(store.heartbeat, store.lease_ttl / 3.0, leases)
                if store is not None
                else None
            )
            released: set = set()

            def let_go(job_id: str, status: str) -> None:
                if store is None or job_id in released:
                    return
                released.add(job_id)
                keeper.remove(job_id)
                store.release(leases[job_id], status=status)

            try:
                if keeper is not None:
                    keeper.__enter__()
                # Results stream back in job order and each is checkpointed
                # as it lands, so an interrupted run — serial or parallel,
                # even a fail-fast abort mid-sweep — leaves every finished
                # job's state on disk for the next invocation to resume from.
                results = pool.imap(tasks)
                for position, job in enumerate(runnable):
                    if not parallel:
                        # Serial execution is lazy: the job runs when the
                        # next result is pulled, so this line precedes it.
                        self._progress(f"{job.job_id}: running")
                    try:
                        result = next(results)
                    except WorkerCrashed as exc:
                        # Supervision gave up on one item; the rest of the
                        # round is lost with the pool and re-runs next round.
                        crashed = exc
                        crashed_position = (
                            exc.item_index
                            if exc.item_index is not None
                            else position
                        )
                        break
                    if result.ok and store is not None:
                        # Lost-lease safety: a reclaimed lease means a peer
                        # may already be re-running this job — committing
                        # our result now could double-write its state.
                        # Discard the work; the job stays in ``remaining``
                        # and the thief's result is adopted (or the job is
                        # re-claimed) next round.
                        lost = keeper.is_lost(job.job_id) or not store.holds(
                            leases[job.job_id]
                        )
                        if lost:
                            book.bump("lease_lost_discards")
                            let_go(job.job_id, "requeued")
                            self._progress(
                                f"{job.job_id}: lease lost mid-run; "
                                f"discarding result (peer owns the job)"
                            )
                            continue
                    if result.ok:
                        book.succeed(job, result, owner)
                        remaining.remove(job)
                        let_go(job.job_id, "ok")
                    completed[job.job_id] = result
                    self._progress(
                        f"{job.job_id}: {result.status} ({result.seconds:.1f}s)"
                        + (f" {result.error}" if result.error else "")
                    )
            except BaseException:
                # A propagating exception (fail-fast job failure, interrupt)
                # abandons the round: drop the held leases so peers — or the
                # next invocation — can pick the unfinished jobs up at once
                # instead of waiting out the TTL.
                for job_id in list(leases):
                    let_go(job_id, "aborted")
                raise
            finally:
                if keeper is not None:
                    keeper.__exit__(None, None, None)

            for position, job in enumerate(runnable):
                result = completed.get(job.job_id)
                if result is not None and result.ok:
                    continue
                if result is None:
                    if crashed is not None and position == crashed_position:
                        # The item supervision blames: account it a failure.
                        result = JobResult(
                            job_id=job.job_id,
                            kind=job.kind,
                            status="error",
                            error=f"WorkerCrashed: {crashed}",
                            exception=crashed,
                        )
                    else:
                        # Lost to a pool crash without being at fault: the
                        # job simply re-enters the next round, no attempt
                        # counted against it.
                        let_go(job.job_id, "requeued")
                        continue
                delay = book.fail(job, result, owner)
                if delay is not None:
                    let_go(job.job_id, "retry")
                    self._progress(
                        f"{job.job_id}: retrying in {delay:.2f}s "
                        f"(attempt {result.attempts + 1}, transient: {result.error})"
                    )
                    continue
                remaining.remove(job)
                let_go(job.job_id, result.status)


def run_campaign(
    spec: CampaignSpec,
    state_dir: Optional[str] = None,
    jobs: Optional[int] = None,
    limit: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    fail_fast: bool = False,
    retry_policy: Optional[RetryPolicy] = None,
    solve_budget: Optional[SolveBudget] = None,
    lease_ttl: Optional[float] = None,
) -> CampaignResult:
    """One-shot convenience wrapper around :class:`CampaignRunner`."""
    return CampaignRunner(
        spec,
        state_dir=state_dir,
        jobs=jobs,
        progress=progress,
        retry_policy=retry_policy,
        solve_budget=solve_budget,
        lease_ttl=lease_ttl,
    ).run(limit=limit, fail_fast=fail_fast)


def run_windowed_campaign(
    path: str,
    *,
    spec: CampaignSpec,
    state_dir: Optional[str] = None,
    jobs: Optional[int] = None,
    limit: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
    verify: bool = True,
    sat_check: Optional[bool] = None,
    retry_policy: Optional[RetryPolicy] = None,
    solve_budget: Optional[SolveBudget] = None,
    lease_ttl: Optional[float] = None,
) -> Tuple[CampaignResult, Optional["object"]]:
    """Run the windowed obfuscation of a BLIF circuit as a campaign.

    ``spec`` is the :meth:`CampaignSpec.windowed` spec of ``path``.
    Per-window jobs fan out over the worker pool with resumable per-window
    state (``state_dir``): an interrupted run resumes from the finished
    windows, whose camouflaged netlists and true configurations are
    reconstructed from the persisted payloads.  Once every window is done
    the windows are stitched back into the parent and verified (packed sim
    plus SAT miter, width permitting); the second element of the returned
    pair is the :class:`~repro.flow.target.WindowedObfuscationResult`, or
    ``None`` while windows are still pending or failed.  ``solve_budget``
    caps the miter too, at its base value: it runs once, in this process,
    with no retry.
    """
    from ..flow.target import assemble_windowed_result
    from ..netlist.window import extract_windows

    outcome = run_campaign(
        spec,
        state_dir=state_dir,
        jobs=jobs,
        limit=limit,
        progress=progress,
        retry_policy=retry_policy,
        solve_budget=solve_budget,
        lease_ttl=lease_ttl,
    )
    if outcome.failed or outcome.pending:
        return outcome, None

    netlist = _read_blif_workload(path)
    windows = None
    records = []
    for result in outcome.results:
        if result.value is not None:
            records.append(result.value)
            continue
        # Restored from state: rebuild the record on its re-derived window.
        if "index" not in result.payload:
            raise CampaignError(
                f"window job {result.job_id!r} has no window index in its state"
            )
        if windows is None:
            first = spec.jobs[0].params
            windows = extract_windows(
                netlist,
                max_inputs=int(first.get("max_window_inputs", 8)),
                max_instances=int(first.get("max_window_instances", 48)),
                strategy=first.get("windowing"),
            )
        window = windows[int(result.payload["index"])]
        records.append(window_record_from_payload(result.payload, window))
    records.sort(key=lambda record: record.window.index)
    with _solve_budget_installed(solve_budget.to_spec() if solve_budget is not None else ""):
        assembled = assemble_windowed_result(
            netlist,
            records,
            verify=verify,
            sat_check=sat_check,
        )
    return outcome, assembled
