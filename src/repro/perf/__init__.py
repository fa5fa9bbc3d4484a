"""The ``repro bench`` harness.

:mod:`~repro.perf.scale_bench` runs mmap-backed 100k/1M-node
power-law graphs through the §3.6 symmetrize → prune kernel and emits
``BENCH_scale.json`` with timing points, peak-RSS high-water marks,
the pair funnel, an exactness certificate per point and a route
differential against ``apply``.

Timings and counts inside the library come from :mod:`repro.obs`
(spans plus metrics), the one instrumentation channel; the harness
reads the pair funnel from its metrics registry.
"""
