"""Parallel sweep orchestrator: declarative grids, process pools, resume.

Every table in the paper reproduction is a grid over (protocol, n, noise,
initializer) cells, and every cell is an independent batch of trials — the
PR-1 batched engine made one cell fast, this package makes a *grid* of
cells fast and repeatable:

* :mod:`~repro.sweep.spec` — declarative :class:`SweepSpec`/:class:`Cell`
  grids (cross-product and zipped axes; spec v2 grids any
  :class:`~repro.config.RunSpec` field plus dotted component parameters
  like ``protocol.ell``) with deterministically derived per-cell seeds — a
  cell *is* a :class:`~repro.config.RunSpec` carrying its derived seed;
* :mod:`~repro.sweep.registry` — name → protocol/initializer/sampler
  builders (samplers as batched observation models), so
  cells are JSON-able and picklable;
* :mod:`~repro.sweep.runner` — :func:`execute_cell`, the pure worker
  function, plus the measure registry (consensus, trace-backed
  θ-convergence/settle, and trajectory-trace measures;
  :func:`register_measure` plugs in new kinds);
* :mod:`~repro.sweep.dispatch` — serial and process-pool dispatchers with
  ordered collection and fault tolerance (:class:`FaultPolicy`: retries
  with exponential backoff, a per-cell timeout watchdog, and crash
  isolation — a worker segfault/OOM rebuilds the pool instead of aborting
  the sweep);
* :mod:`~repro.sweep.faults` — deterministic fault injection
  (:class:`FaultPlan`/:class:`FaultInjector`: planned raises, hangs, and
  worker kills per cell and attempt) proving the recovery paths end to end;
* :mod:`~repro.sweep.store` — the append-only JSON-lines
  :class:`ResultsStore` behind resume-after-interrupt and skip-if-cached,
  with per-record checksums and an fsync durability knob;
* :mod:`~repro.sweep.orchestrator` — :func:`run_sweep` tying it together,
  with CSV/table export through :mod:`repro.viz`.

The front door is ``repro sweep`` (see :mod:`repro.cli`); the experiment
drivers in :mod:`repro.experiments.convergence` and
:mod:`repro.experiments.robustness` run on this orchestrator.

Quickstart::

    from repro.sweep import SweepSpec, run_sweep

    spec = SweepSpec(
        name="fet-vs-voter",
        seed=0,
        trials=50,
        axes={
            "protocol": ["fet", "voter"],
            "n": [100, 1000],
            "initializer": ["all-wrong", {"name": "bernoulli", "p": 0.5}],
        },
    )
    result = run_sweep(spec, jobs=4, store="results/sweep_store.jsonl")
    print(result.table())
"""

from .dispatch import (
    BrokenWorkerError,
    CellTimeoutError,
    FailedItem,
    FaultPolicy,
    ProcessPoolDispatcher,
    SerialDispatcher,
    make_dispatcher,
)
from .faults import FAULT_KINDS, FaultInjector, FaultPlan, InjectedFault
from .orchestrator import SweepResult, run_sweep
from .registry import (
    build_initializer,
    build_protocol,
    build_samplers,
    component_catalog,
    initializer_names,
    protocol_names,
    sampler_names,
    validate_cell,
)
from .runner import (
    ERROR_COLUMN,
    RESULT_COLUMNS,
    CellResult,
    MeteredCell,
    execute_cell,
    measure_kinds,
    register_measure,
)
from .spec import (
    AXES,
    EXTENDED_AXES,
    SPEC_VERSION,
    Cell,
    SweepSpec,
    fet_demo_spec,
    load_spec,
)
from .store import ResultsStore

__all__ = [
    "AXES",
    "BrokenWorkerError",
    "Cell",
    "CellResult",
    "CellTimeoutError",
    "ERROR_COLUMN",
    "EXTENDED_AXES",
    "FAULT_KINDS",
    "FailedItem",
    "FaultInjector",
    "FaultPlan",
    "FaultPolicy",
    "InjectedFault",
    "MeteredCell",
    "ProcessPoolDispatcher",
    "RESULT_COLUMNS",
    "ResultsStore",
    "SPEC_VERSION",
    "SerialDispatcher",
    "SweepResult",
    "SweepSpec",
    "build_initializer",
    "build_protocol",
    "build_samplers",
    "component_catalog",
    "execute_cell",
    "fet_demo_spec",
    "initializer_names",
    "load_spec",
    "make_dispatcher",
    "measure_kinds",
    "protocol_names",
    "register_measure",
    "run_sweep",
    "sampler_names",
    "validate_cell",
]
