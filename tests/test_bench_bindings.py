"""Every name that `bench/tracing.py` binds in hpmsim resolves.

A `SPAN_TIMES` target names a layer function that the tracer wraps only if
it is a public function of that layer's module, and a `COUNTED` method is
wrapped through the class `__dict__`. A renamed function or method would
otherwise read as a zero metric, not as an error, and so would an F2 that
rescaling turned into a class without the counted methods.
"""

import inspect

from hpmsim.ode import rescale
from hpmsim.pipeline import generate_instance
from test_bench_contract import _load


def test_every_span_time_names_a_public_layer_function():
    tracing = _load("tracing")
    for metric, target in tracing.SPAN_TIMES.items():
        layer, func = target.split(".")
        obj = vars(tracing.LAYERS[layer]).get(func)
        assert not func.startswith("_"), metric
        assert inspect.isfunction(obj), metric
        assert obj.__module__ == tracing.LAYERS[layer].__name__, metric


def test_every_counted_method_is_in_its_class_dict():
    tracing = _load("tracing")
    for cls, method, counter in tracing.COUNTED:
        assert inspect.isfunction(cls.__dict__.get(method)), (cls.__name__, method, counter)


def test_a_rescaled_instance_counts_its_rhs_products():
    # rescaling scales F2 by scipy's scalar product, which keeps its class, so
    # rhs still reaches the counted SparseMatrix.matvec for F1 and for F2
    tracing = _load("tracing")
    tracer = tracing.Tracer()
    ode = rescale(generate_instance(3, 2, 0.3, 7), 0.5)
    with tracer.installed():
        ode.rhs(ode.u_in)
    assert tracer.counts["sparse.matvec_calls"] == 2
    assert tracer.counts["ode.rhs_calls"] == 1
