"""OBS001 fixture: a completed batch's timestamp recomputed at its one
per-batch emission, and the same call reading the clock as charged."""


def recomputed_finish(tr, run, requests, span, boundary):
    tr.batch_done(
        run.index, run.kind, run.priority, requests,
        run.service, run.reload, run.wasted, run.faults,
        launch=run.launch, start=run.seg_clock, dur=span, ts=boundary + 0.0,
    )


def finish_read_from_clock(tr, run, requests, span):
    finish = run.boundary
    tr.batch_done(
        run.index, run.kind, run.priority, requests,
        run.service, run.reload, run.wasted, run.faults,
        launch=run.launch, start=run.seg_clock, dur=span, ts=finish,
    )
