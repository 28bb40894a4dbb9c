"""Trace subsystem: batched trajectory recording and trace-derived measures.

Measurement as a first-class layer over the engines (rather than an engine
flag): :mod:`~repro.trace.recorder` captures per-replica one-fraction (and
optionally flip) curves from the lock-step round loop —
surviving replica retirement, optionally strided or ring-buffered — and
:mod:`~repro.trace.measures` reduces the recorded ``(R, T)`` matrices into
the trajectory-shaped quantities the experiments report (time-to-θ, settle
level, post-settle flip rate). This is what moves the per-trial
trajectory consumers, the Figure 1b transition experiment, and the
``theta`` sweep measure onto the batched fast path.
"""

from .measures import (
    nonsource_correct_fractions,
    post_settle_flip_rate,
    settle_rounds,
    time_to_threshold,
    window_mean_after,
)
from .recorder import BatchTrace, FullTrace, RingBufferTrace, TraceRecorder, make_recorder

__all__ = [
    "BatchTrace",
    "FullTrace",
    "RingBufferTrace",
    "TraceRecorder",
    "make_recorder",
    "nonsource_correct_fractions",
    "post_settle_flip_rate",
    "settle_rounds",
    "time_to_threshold",
    "window_mean_after",
]
