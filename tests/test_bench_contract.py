"""The benchmark's tracer still finds the names it rebinds.

``bench/run.py --trace 1`` measures each layer by rebinding package
functions by identity (``bench/spans.py``).  A rename or deletion of one of
those names would silently empty a per-layer metric; this test makes it
fail instead.  ``bench/selfcheck.py`` covers the same ground end to end but
takes about a minute.  GK15 takes no stroke of the EXACT op, so its spans are
reached through a stroke chosen for GK15.
"""

import importlib.util
from pathlib import Path

import qstirling as qs

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
# span calls of one EXACT plus one LOW_TEMP engine op
SPAN_CALLS = {"timing.stroke": 4, "timing.cycle_time": 1, "timing.closed_form": 1,
              "timing.extents": 2, "cycles.ledger": 1, "statistics.population": 4}


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_every_layer_of_an_exact_and_a_low_temp_op():
    spans = _load_spans()
    tracer = spans.Tracer().install()
    try:
        # build inside the trace, as the benchmark does
        spec = qs.EngineSpec(qs.Statistics.BOSONIC, 1.0, 2.0, 0.6 * 2.0, 2.0, 4.0, 1.4 * 4.0)
        model = qs.GevaKosloff(1.0, -0.05)
        regen = qs.LinearEngineRegenerator(1.4, 0.6)
        cfg = qs.QuadratureConfig(1e-10, 1e-300, 200)
        qs.engine_performance(spec, model, regen, cfg, qs.Mode.EXACT)
        qs.engine_performance(spec, model, regen, mode=qs.Mode.LOW_TEMP)
        # a stroke a rule sized in advance does not cover: its ends lie 308 decades
        # apart, so GK15 sums it (9 panels)
        op_calls = {key: tracer.calls(key) for key in SPAN_CALLS}
        qs.isochoric_time(qs.Statistics.BOSONIC, model, 1.4, 1.0, 1e-308, 2.0)
    finally:
        tracer.remove()
    for key in ("timing.closed_form", "performance.low_temp", "performance.exact",
                "quadrature.integrate"):
        assert tracer.calls(key) > 0, key
    assert tracer.work_counts()["integrand_evals"] > 0
    # a stroke walk that bypassed a rebound name would lower one of these
    assert op_calls == SPAN_CALLS
    # remove() restored the originals
    assert qs.engine_performance is qs.performance.cycle_performance
