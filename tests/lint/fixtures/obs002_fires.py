"""OBS002 fixture: serving code that owns metrics."""


def registry_read(tracer):
    registry = tracer.registry
    return registry


def counter_handle(registry):
    registry.counter("requests_completed").inc()


def gauge_handle(registry, depth):
    registry.gauge("queue_depth").set(depth)


def histogram_through_tracer(tracer, latency):
    # the registry read and the histogram call fire one finding each
    tracer.registry.histogram("request_latency", (1.0,)).observe(latency)
