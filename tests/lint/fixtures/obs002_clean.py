"""OBS002 clean fixture: serving code hands the tracer its state."""


def hand_state(tracer, queues, rows, totals, clock):
    tracer.sample((queues, rows, totals), ts=clock)


def emit_event(tracer, stamps, clock):
    tracer.request_shed(*stamps, ts=clock)


def unrelated_names_are_free(counts, registry):
    # a name called registry, and .count(), are not metric access
    return counts.count(1), registry["mlp"]
