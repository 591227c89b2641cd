"""Phase II: genetic-algorithm optimisation of pin assignments.

The fitness of a pin assignment is the gate-equivalent area of the merged
circuit after synthesis — exactly the loop the paper runs with DEAP driving
ABC.  Synthesis is by far the dominant cost, so fitness evaluations are
cached at two levels:

* by **genotype**, in the GA engine's memo: a genotype the engine has seen
  never reaches the problem again, and
* by **canonical signature** of the merged design: the packed truth tables
  of the merged function.  Pin-assignment symmetries (permutations a viable
  function is invariant under, compositions that cancel out) collapse many
  distinct genotypes onto the same merged circuit, and such genotypes never
  re-synthesize — the cached area is exact because synthesis is a pure
  function of the merged truth tables.

:meth:`PinAssignmentProblem.evaluate` is the one place a genotype becomes a
fitness, and it runs in the calling process: it merges each genotype, looks
the signature up in memory and then in the persistent store, and sends only
the merged functions found in neither to synthesis.  With ``jobs > 1`` they
are synthesised over one worker pool whose task receives a merged function,
never the problem, and returns the ``synth`` counters it added, which the
caller adds to its own :func:`~repro.synth.script.synthesis_telemetry`.  So
caches, counters and store writes stay in one process, and seeded results,
:meth:`PinAssignmentProblem.cache_stats` and the synthesis counters are the
same for every ``jobs`` value.

When the ``REPRO_CACHE_DIR`` environment variable names a directory, the
canonical-signature cache is additionally persisted to append-only JSONL
files there (:class:`SynthesisDiskCache`).  :func:`resolve_synthesis_cache`
gives each process one store, loaded on first use, and every fresh
synthesis appends one line to that process's own segment, so repeated
sweeps, CI runs, and the ``paper`` profile share synthesis work across
processes and machines.  The cached area is exact — synthesis is a pure
function of the merged truth tables — so persistence cannot change any
result.
"""

from __future__ import annotations

import glob as _glob
import hashlib
import json
import os
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from ..faults import corrupt_text, faults_enabled
from ..logic.boolfunc import BoolFunction
from ..merge.merged import MergedDesign, merge_functions
from ..merge.pinassign import PinAssignment
from ..netlist.library import CellLibrary, standard_cell_library
from ..parallel import WorkerPool
from ..synth.script import (
    SynthesisEffort,
    SynthesisResult,
    synthesis_counters,
    synthesis_counters_since,
    synthesis_telemetry,
    synthesize,
)
from .engine import GAParameters, GAResult, GenerationStats, GeneticAlgorithm
from .operators import SegmentedPermutationSpace

__all__ = [
    "PinAssignmentProblem",
    "PinOptimizationResult",
    "SynthesisDiskCache",
    "library_fingerprint",
    "optimize_pin_assignment",
    "compact_cache_dir",
    "resolve_synthesis_cache",
    "CACHE_DIR_ENV_VAR",
]

#: Environment variable naming the directory of the persistent synthesis cache.
CACHE_DIR_ENV_VAR = "REPRO_CACHE_DIR"


def library_fingerprint(library: CellLibrary) -> str:
    """Deterministic fingerprint of a cell library's synthesis-relevant data.

    Synthesised area depends on the library (cells, their functions, their
    areas), so cache entries written under one library must never answer
    queries under another.  The fingerprint hashes a canonical rendering of
    every cell; it is stable across processes and machines (unlike
    ``hash()``).
    """
    canon = ";".join(
        f"{cell.name}:{cell.num_inputs}:{cell.function.bits:x}:{cell.area!r}"
        for cell in sorted(library.cells(), key=lambda cell: cell.name)
    )
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


class SynthesisDiskCache:
    """Append-only JSONL store of synthesised areas keyed by signature.

    One line per entry: ``{"effort": ..., "library": <fingerprint>,
    "signature": [...], "area": ...}``.  The key includes a fingerprint of
    the cell library, so caches shared across runs never answer a query
    synthesised under a different library.

    **Writes are interleave-safe by construction**: every process appends
    to its *own* segment file (``synthesis_cache.<pid>.jsonl``), so two
    concurrent writers can never interleave bytes inside one line, no
    matter how the platform buffers appends.  The segment is named by the
    constructing process, so a process must not use a store it inherited
    across ``fork``: :func:`resolve_synthesis_cache` builds one per pid.
    Loading merges the legacy shared file plus every segment; corrupt or
    alien lines are skipped — a torn final line from a crashed writer must
    not poison the store.  All I/O failures degrade to an in-memory cache
    rather than failing the experiment.
    """

    FILENAME = "synthesis_cache.jsonl"

    #: Per-process segment files (``<pid>`` keeps one file per writer).
    SEGMENT_PATTERN = "synthesis_cache.*.jsonl"

    def __init__(self, directory: str):
        self.directory = directory
        self.path = os.path.join(directory, self.FILENAME)
        #: This process's private append target — never shared, so appends
        #: from concurrent processes cannot interleave within a line.
        self.segment_path = os.path.join(
            directory, f"synthesis_cache.{os.getpid()}.jsonl"
        )
        self._entries: Dict[Tuple[str, str, Tuple[int, ...]], float] = {}
        self.loaded = 0
        self.hits = 0
        self.appends = 0
        self._load()

    def _store_files(self) -> List[str]:
        """The legacy shared file plus every per-process segment, sorted."""
        paths = {self.path}
        try:
            paths.update(
                _glob.glob(os.path.join(self.directory, self.SEGMENT_PATTERN))
            )
        except OSError:
            pass
        return sorted(paths)

    def _load(self) -> None:
        for path in self._store_files():
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    for line in handle:
                        line = line.strip()
                        if not line:
                            continue
                        try:
                            entry = json.loads(line)
                            key = (
                                str(entry["effort"]),
                                str(entry["library"]),
                                tuple(int(value) for value in entry["signature"]),
                            )
                            self._entries[key] = float(entry["area"])
                            self.loaded += 1
                        except (ValueError, KeyError, TypeError):
                            continue  # torn or alien line; skip it
            except OSError:
                continue

    def get(
        self, effort: str, library: str, signature: Tuple[int, ...]
    ) -> Optional[float]:
        """Look up a synthesised area (None on miss)."""
        area = self._entries.get((effort, library, signature))
        if area is not None:
            self.hits += 1
        return area

    def put(
        self, effort: str, library: str, signature: Tuple[int, ...], area: float
    ) -> None:
        """Record a synthesised area (idempotent; appends one JSONL line)."""
        key = (effort, library, signature)
        if key in self._entries:
            return
        self._entries[key] = area
        line = (
            json.dumps(
                {
                    "effort": effort,
                    "library": library,
                    "signature": list(signature),
                    "area": area,
                }
            )
            + "\n"
        )
        if faults_enabled():
            # Chaos hook: a matching ``cache_corrupt`` fault truncates this
            # line mid-write — the on-disk damage a crashed writer leaves.
            # ``_load`` must skip exactly this line and nothing else.
            line = corrupt_text("cache_corrupt", line, key=library)
        try:
            with open(self.segment_path, "a", encoding="utf-8") as handle:
                handle.write(line)
                handle.flush()
            self.appends += 1
        except OSError:
            pass

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self):
        """Iterate ``(effort, library, signature, area)`` over every entry.

        The export surface behind cache compaction and the service's shared
        cache tier: both re-serialise entries without knowing the in-memory
        key layout.
        """
        for (effort, library, signature), area in self._entries.items():
            yield effort, library, signature, area


def compact_cache_dir(directory: str) -> Dict[str, int]:
    """Merge every cache segment in ``directory`` into one deduplicated file.

    PR 7 made appends segment-per-pid (interleave-safe), which long-lived
    fleets pay for in unbounded small files.  Compaction loads the legacy
    shared file plus every segment (torn lines skipped, duplicates
    deduplicated by key), rewrites the single shared ``FILENAME`` via an
    atomic rename, and deletes the merged segments.  Concurrent writers
    stay safe: they only ever append to their *own* live segment, and a
    segment created after the scan is simply left for the next compaction.
    """
    cache = SynthesisDiskCache(directory)
    merged = [path for path in cache._store_files() if os.path.exists(path)]
    text = "".join(
        json.dumps(
            {
                "effort": effort,
                "library": library,
                "signature": list(signature),
                "area": area,
            }
        )
        + "\n"
        for effort, library, signature, area in sorted(cache.entries())
    )
    temp_path = f"{cache.path}.tmp.{os.getpid()}"
    with open(temp_path, "w", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp_path, cache.path)
    removed = 0
    for path in merged:
        if path == cache.path:
            continue
        try:
            os.unlink(path)
            removed += 1
        except OSError:
            pass
    return {
        "entries": len(cache),
        "files_merged": len(merged),
        "segments_removed": removed,
    }


#: The process's synthesis store for each ``(pid, directory, URL)``.  The pid
#: is part of the key, so a forked child never reuses its parent's store:
#: it builds its own, with its own segment and its own upload thread.
_STORES: Dict[Tuple[int, str, str], SynthesisDiskCache] = {}


def resolve_synthesis_cache() -> Optional[SynthesisDiskCache]:
    """The synthesis store the environment asks for: the only way to get one.

    With ``REPRO_CACHE_URL`` set the store is a
    :class:`repro.service.cache.RemoteCacheTier` — same ``get``/``put``
    surface, backed by the coordinator's shared cache over HTTP with the
    ``REPRO_CACHE_DIR`` store (when any) as its read-through front.
    Otherwise it is the :class:`SynthesisDiskCache` of ``REPRO_CACHE_DIR``,
    and ``None`` when neither is set or the directory cannot be created.
    The store is built and loaded on first use, once per process, and later
    calls in that process under the same variables return the same object.
    """
    directory = os.environ.get(CACHE_DIR_ENV_VAR, "").strip()
    url = os.environ.get("REPRO_CACHE_URL", "").strip()
    if not (directory or url):
        return None
    if directory:
        directory = os.path.abspath(directory)
    key = (os.getpid(), directory, url)
    store = _STORES.get(key)
    if store is not None:
        return store
    if directory:
        try:
            os.makedirs(directory, exist_ok=True)
            store = SynthesisDiskCache(directory)
        except OSError:
            pass  # no disk store
    if url:
        from ..service.cache import RemoteCacheTier

        store = RemoteCacheTier(url, local=store)
    if store is not None:
        _STORES[key] = store
    return store


def _synthesized_area(
    function: BoolFunction, library: CellLibrary, effort: str
) -> Tuple[float, Dict[str, float], int]:
    """Synthesise one merged function: the fitness task of Phase II.

    Returns the area, the ``synth`` counters this call added to the running
    process's :func:`synthesis_telemetry`, and that process's pid, so the
    caller can tell a task that ran in a worker from one that ran inline.
    """
    before = synthesis_counters()
    area = synthesize(function, library=library, effort=effort).area
    return area, synthesis_counters_since(before), os.getpid()


class PinAssignmentProblem:
    """The Phase II search space and its fitness, owned in one process.

    :meth:`evaluate` is the only way a genotype becomes a fitness.  The GA
    and the random-search baseline each build their own problem; its caches
    and counters live in the process that calls :meth:`evaluate`, and worker
    processes (see :meth:`synthesis_pool`) only ever see merged functions.
    """

    def __init__(
        self,
        functions: Sequence[BoolFunction],
        library: Optional[CellLibrary] = None,
        effort: str = SynthesisEffort.FAST,
    ):
        if not functions:
            raise ValueError("at least one viable function is required")
        self.functions = list(functions)
        self.library = library or standard_cell_library()
        self.effort = effort
        self.num_inputs = functions[0].num_inputs
        self.num_outputs = functions[0].num_outputs
        for function in functions:
            if (
                function.num_inputs != self.num_inputs
                or function.num_outputs != self.num_outputs
            ):
                raise ValueError("all viable functions must have the same shape")
        segment_sizes = [self.num_inputs] * len(functions) + [self.num_outputs] * len(functions)
        self.space = SegmentedPermutationSpace(segment_sizes)
        self._signature_cache: Dict[Tuple[int, ...], float] = {}
        self._synthesize = partial(_synthesized_area, library=self.library, effort=effort)
        #: Optional persistent read-through store (``REPRO_CACHE_DIR``, or
        #: the remote tier under ``REPRO_CACHE_URL``; one store per process,
        #: shared by every problem in it).  Synthesis is a pure function of
        #: the effort, the library and the merged truth tables, which
        #: together key every stored area, so areas are safe to reuse across
        #: runs.
        self.disk_cache: Optional[SynthesisDiskCache] = resolve_synthesis_cache()
        self._library_fingerprint = (
            library_fingerprint(self.library) if self.disk_cache is not None else ""
        )
        # The shared store serves many problems; report per-problem deltas.
        self._disk_hits_baseline = (
            self.disk_cache.hits if self.disk_cache is not None else 0
        )
        remote_stats = getattr(self.disk_cache, "remote_stats", None)
        self._remote_baseline = dict(remote_stats()) if remote_stats else {}
        self.evaluations = 0
        self.signature_hits = 0

    # -------------------------------------------------------------- #
    # Genotype plumbing
    # -------------------------------------------------------------- #
    def assignment_from_genotype(self, genotype: Sequence[int]) -> PinAssignment:
        """Convert a flat genotype into a :class:`PinAssignment`."""
        return PinAssignment.from_genotype(
            list(genotype), len(self.functions), self.num_inputs, self.num_outputs
        )

    def random_genotype(self, rng: random.Random) -> List[int]:
        """Sample a random genotype (function 0 pinned to identity)."""
        return self._pin_first_function(self.space.random_genotype(rng))

    def _pin_first_function(self, genotype: List[int]) -> List[int]:
        """Force function 0's permutations to identity (removes symmetry)."""
        segments = self.space.split(genotype)
        segments[0] = list(range(self.num_inputs))
        segments[len(self.functions)] = list(range(self.num_outputs))
        return self.space.join(segments)

    # -------------------------------------------------------------- #
    # Fitness
    # -------------------------------------------------------------- #
    def _merged_design(self, genotype: Sequence[int]) -> MergedDesign:
        """The merged design a genotype describes (the single place where a
        genotype becomes a circuit — evaluation, signatures and synthesis all
        go through here so they can never disagree)."""
        assignment = self.assignment_from_genotype(genotype)
        return merge_functions(self.functions, assignment)

    def synthesize_genotype(self, genotype: Sequence[int]) -> SynthesisResult:
        """Synthesise the merged circuit for a genotype (not cached)."""
        design = self._merged_design(genotype)
        return synthesize(design.function, library=self.library, effort=self.effort)

    def canonical_signature(self, genotype: Sequence[int]) -> Tuple[int, ...]:
        """Canonical key of the merged circuit a genotype produces.

        The signature is the merged function itself (input count plus the
        packed truth-table bits of every output), so two genotypes share a
        signature exactly when they merge to the same circuit — the condition
        under which their synthesised areas are provably equal.
        """
        return self._signature_of(self._merged_design(genotype).function)

    @staticmethod
    def _signature_of(function: BoolFunction) -> Tuple[int, ...]:
        return (function.num_inputs,) + tuple(table.bits for table in function.outputs)

    def synthesis_pool(self, jobs: int) -> WorkerPool:
        """A pool that synthesises this problem's merged functions.

        Pass it to :meth:`evaluate`.  Its task receives a merged function,
        never the problem; at ``jobs=1`` it starts no process.
        """
        return WorkerPool(self._synthesize, jobs=jobs)

    def evaluate(
        self, genotypes: Sequence[Sequence[int]], pool: Optional[WorkerPool] = None
    ) -> List[float]:
        """Synthesised areas (GE) of the merged circuits, in genotype order.

        Each genotype is merged here and its canonical signature looked up,
        first in memory, then in the persistent store.  The merged functions
        found in neither are synthesised once each, in first-occurrence
        order, over ``pool`` (by default :meth:`synthesis_pool` at
        ``jobs=1``, which runs them inline).  A signature that repeats within
        the batch is a signature hit, as if the genotypes had come one by
        one, so every counter is the same at any worker count.
        """
        if pool is None:
            pool = self.synthesis_pool(1)
        signatures: List[Tuple[int, ...]] = []
        pending: Dict[Tuple[int, ...], BoolFunction] = {}
        for genotype in genotypes:
            function = self._merged_design(genotype).function
            signature = self._signature_of(function)
            signatures.append(signature)
            if signature in self._signature_cache or signature in pending:
                self.signature_hits += 1
                continue
            area = None
            if self.disk_cache is not None:
                area = self.disk_cache.get(
                    self.effort, self._library_fingerprint, signature
                )
            if area is None:
                pending[signature] = function
            else:
                self._signature_cache[signature] = area
        results = pool.map(list(pending.values()))
        for signature, (area, counters, pid) in zip(pending, results):
            if pid != os.getpid():
                # A worker's synthesis counters are not in this process yet.
                synthesis_telemetry().absorb("synth", counters)
            self.evaluations += 1
            self._signature_cache[signature] = area
            if self.disk_cache is not None:
                self.disk_cache.put(
                    self.effort, self._library_fingerprint, signature, area
                )
        return [self._signature_cache[signature] for signature in signatures]

    def cache_stats(self) -> Dict[str, int]:
        """Synthesis runs, signature-cache hits and size, and store traffic.

        ``evaluations`` counts synthesis runs, wherever they ran.  The
        ``disk_*`` counters are only present when a persistent cache is
        attached (``REPRO_CACHE_DIR``).  The process's store is shared by
        every problem in it, so ``disk_hits`` reports the hits observed
        since *this* problem was constructed (``disk_loaded`` and
        ``disk_entries`` describe the shared store itself).
        """
        stats = {
            "evaluations": self.evaluations,
            "signature_hits": self.signature_hits,
            "signature_entries": len(self._signature_cache),
        }
        if self.disk_cache is not None:
            stats["disk_hits"] = self.disk_cache.hits - self._disk_hits_baseline
            stats["disk_loaded"] = self.disk_cache.loaded
            stats["disk_entries"] = len(self.disk_cache)
            remote_stats = getattr(self.disk_cache, "remote_stats", None)
            if remote_stats:
                # Shared-tier traffic since this problem was constructed.
                for key, value in remote_stats().items():
                    stats[f"remote_{key}"] = value - self._remote_baseline.get(key, 0)
        return stats

    # -------------------------------------------------------------- #
    # GA operators
    # -------------------------------------------------------------- #
    def crossover(
        self, parent_a: List[int], parent_b: List[int], rng: random.Random
    ) -> Tuple[List[int], List[int]]:
        """Segment-wise PMX crossover preserving the pinned first function."""
        child_a, child_b = self.space.crossover(parent_a, parent_b, rng)
        return self._pin_first_function(child_a), self._pin_first_function(child_b)

    def mutate(self, genotype: List[int], rng: random.Random) -> List[int]:
        """Segment-wise swap/shuffle mutation preserving the pinned function."""
        return self._pin_first_function(self.space.mutate(genotype, rng))


@dataclass
class PinOptimizationResult:
    """The outcome of Phase II."""

    best_assignment: PinAssignment
    best_area: float
    merged_design: MergedDesign
    synthesis: SynthesisResult
    ga_result: GAResult
    history: List[GenerationStats] = field(default_factory=list)
    #: Fitness-cache counters: :meth:`PinAssignmentProblem.cache_stats` plus
    #: ``genotype_hits``, the requests the engine's genotype memo answered.
    cache_stats: Dict[str, int] = field(default_factory=dict)

    @property
    def evaluations(self) -> int:
        """Number of distinct genotypes the GA evaluated."""
        return self.ga_result.evaluations


def optimize_pin_assignment(
    functions: Sequence[BoolFunction],
    parameters: Optional[GAParameters] = None,
    library: Optional[CellLibrary] = None,
    effort: str = SynthesisEffort.FAST,
    final_effort: str = SynthesisEffort.STANDARD,
    jobs: int = 1,
) -> PinOptimizationResult:
    """Run the Phase II genetic algorithm and return the best pin assignment.

    ``effort`` controls the synthesis effort used inside the fitness loop
    (fast by default, as in an exploration loop); ``final_effort`` is used
    for the one final synthesis of the winning assignment.  Generation zero
    holds the identity assignment.  ``jobs`` sets the number of worker
    processes that synthesise fitness misses (1 = inline); results and
    counters are identical for every ``jobs`` value.
    """
    problem = PinAssignmentProblem(functions, library=library, effort=effort)
    with problem.synthesis_pool(jobs) as pool:
        engine = GeneticAlgorithm(
            sample=problem.random_genotype,
            evaluate=partial(problem.evaluate, pool=pool),
            crossover=problem.crossover,
            mutate=problem.mutate,
            parameters=parameters,
        )
        ga_result = engine.run(initial_population=[problem.space.identity_genotype()])
    stats = problem.cache_stats()
    # The engine's memo answers repeated genotypes before they reach the
    # problem, so its hits are the workload's genotype hits.
    stats["genotype_hits"] = engine.cache_hits

    best_assignment = problem.assignment_from_genotype(ga_result.best_genotype)
    merged = merge_functions(functions, best_assignment)
    final = synthesize(merged.function, library=problem.library, effort=final_effort)
    best_area = min(final.area, ga_result.best_fitness)
    return PinOptimizationResult(
        best_assignment=best_assignment,
        best_area=best_area,
        merged_design=merged,
        synthesis=final,
        ga_result=ga_result,
        history=list(ga_result.history),
        cache_stats=stats,
    )
