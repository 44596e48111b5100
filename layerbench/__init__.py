"""layerbench: end-to-end and per-layer benchmark of the transfer stack.

Five closed-loop workloads (three over loopback UDP against a pinned
``repro serve`` child, two on the discrete-event simulator) give the
end-to-end numbers with tracing off; a separate traced run of each
gives the per-layer ledger.  See ``layerbench/README.md``.

The package depends only on the narrow program surface listed in the
README, so later refactors of ``src/repro`` do not need to edit it.
"""
