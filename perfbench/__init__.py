"""perfbench: the end-to-end + per-layer benchmark of the simulator.

It measures ``repro`` purely from outside: rank programs written against the
paper-level API (:mod:`perfbench.programs`), six workloads of fixed size
(:mod:`perfbench.workloads`), one fresh single-threaded process per
measurement (:mod:`perfbench.child`), host-time spans placed from here
(:mod:`perfbench.spans`).  ``BENCHMARK.json`` at the repository root names
the command, the workloads and every metric; ``perfbench/README.md`` says
what each of them means.
"""
