"""A wrapper source is metered by its own buffer.

``register_wrapper`` no longer stacks a ``CountingDocument`` over the
buffer: the buffer counts its commands and publishes the ``source.*``
events and ``source_navigations_total`` increments itself.  These
tests pin that the self-metering buffer is indistinguishable from the
hand-built ``CountingDocument(buffered(...))`` stack it replaced --
same per-command counts, same event sequence (in the same places
relative to the ``buffer.fill`` spans), same metrics -- and that a
hand-built stack over a buffer still counts and emits only once.
"""

import pytest

from repro.bench import allbooks_plan, browse_first_k, two_bookstores
from repro.mediator import MIXMediator
from repro.navigation import CountingDocument, materialize
from repro.runtime import EngineConfig, Tracer
from repro.testing import FakeClock
from repro.wrappers import XMLFileWrapper, buffered
from repro.xtree import Tree

N_BOOKS = 300

#: the E3 query: books under $40 in the allbooks integrated view
E3_QUERY = """
CONSTRUCT <hits> $B {$B} </hits> {}
WHERE allbooks book $B AND $B price._ $P AND $P < 40
"""

SOURCES = ("amazonSrc", "bnSrc")


def _wrappers():
    amazon, bn = two_bookstores(N_BOOKS, overlap=0.5)
    return {
        "amazonSrc": XMLFileWrapper("amazonSrc", Tree("catalog", amazon),
                                    chunk_size=20, depth=4),
        "bnSrc": XMLFileWrapper("bnSrc", Tree("catalog", bn),
                                chunk_size=20, depth=4),
    }


def _session(config, hand_built):
    """A recording mediator over the E3 sources, registered through
    ``register_wrapper`` or through hand-built meter-over-buffer
    stacks; returns it with its per-source meters."""
    med = MIXMediator(config, tracer=Tracer(record=True, clock=FakeClock()))
    meters = {}
    for name, wrapper in _wrappers().items():
        if hand_built:
            buffer = buffered(wrapper, prefetch=config.prefetch,
                              tracer=med.tracer, name=name)
            meters[name] = CountingDocument(
                buffer, name=name, tracer=med.tracer,
                metrics=med.runtime.metrics)
            med.register_source(name, meters[name], meter=False)
        else:
            med.register_wrapper(name, wrapper)
            meters[name] = med.meters[name]
    med.register_view("allbooks", allbooks_plan(*SOURCES))
    return med, meters


def _observed(med, meters):
    events = [(e.layer, e.event, e.data, e.span_id, e.parent_id)
              for e in med.tracer.events
              if e.layer in ("source", "buffer")]
    counter = med.runtime.metrics.counter("source_navigations_total")
    return {
        "counters": {name: meter.counters.as_dict()
                     for name, meter in meters.items()},
        "events": events,
        "metrics": {(name, command): counter.value(source=name,
                                                   command=command)
                    for name in SOURCES
                    for command in ("d", "r", "f", "select")},
    }


def _run(config, hand_built, read):
    med, meters = _session(config, hand_built)
    read(med.prepare(E3_QUERY))
    return _observed(med, meters)


def _full_scan(result):
    materialize(result.document)


def _browse(result):
    assert browse_first_k(result.root, 7) == 7


CONFIGS = {
    "default": EngineConfig(metrics_enabled=True),
    "sigma": EngineConfig(metrics_enabled=True, use_sigma=True),
    "prefetch": EngineConfig(metrics_enabled=True, prefetch=2),
}


@pytest.mark.parametrize("read", [_full_scan, _browse],
                         ids=["e3_scan", "browse"])
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_self_metering_buffer_matches_the_counting_proxy(config, read):
    config = CONFIGS[config]
    proxied = _run(config, hand_built=True, read=read)
    metered = _run(config, hand_built=False, read=read)
    assert metered["counters"] == proxied["counters"]
    assert metered["events"] == proxied["events"]
    assert metered["metrics"] == proxied["metrics"]
    # the traffic is real: commands flowed and fills interleave them
    source_events = [e for e in metered["events"] if e[0] == "source"]
    assert len(source_events) == sum(
        c["total"] for c in metered["counters"].values()) > 0
    assert any(e[:2] == ("buffer", "fill.begin")
               for e in metered["events"])
    assert sum(metered["metrics"].values()) == len(source_events)


def test_sigma_scan_meters_select_commands():
    observed = _run(CONFIGS["sigma"], hand_built=False, read=_full_scan)
    assert sum(c["select"] for c in observed["counters"].values()) > 0


def test_hand_built_stack_over_a_buffer_counts_once():
    med, meters = _session(CONFIGS["default"], hand_built=True)
    _full_scan(med.prepare(E3_QUERY))
    observed = _observed(med, meters)
    source_events = [e for e in observed["events"] if e[0] == "source"]
    assert len(source_events) == sum(m.total for m in meters.values())
    assert sum(observed["metrics"].values()) == len(source_events)


def test_meter_surface():
    med, meters = _session(CONFIGS["default"], hand_built=False)
    browse_first_k(med.prepare(E3_QUERY).root, 3)
    meter = med.meters["amazonSrc"]
    assert meter.inner.counters is meter.counters
    assert meter.inner.stats.navigations >= meter.total > 0
    assert med.total_source_navigations() == sum(
        m.total for m in med.meters.values())
    med.reset_meters()
    assert meter.total == 0 and med.total_source_navigations() == 0
