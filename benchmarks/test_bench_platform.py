"""F1 (Figure 1) — EASIS software topology: construction and validation.

Regenerates the layered-platform structure and benchmarks building and
validating it.
"""

from repro.platform import Layer, build_easis_topology


def test_bench_topology_construction(benchmark):
    topo = benchmark(build_easis_topology)
    assert topo.provider_of("watchdog.heartbeat_indication").name == "SoftwareWatchdog"
    # Print the regenerated Figure 1 structure.
    for layer in reversed(list(Layer)):
        names = ", ".join(name for name, m in topo.modules.items()
                          if layer in m.layer_range())
        print(f"L{int(layer)}: {names}")


def test_bench_topology_validation(benchmark):
    topo = build_easis_topology()
    benchmark(topo.validate)
