"""The two per-experiment simulation loops, shared by every engine.

:func:`masking_loop` and :func:`detection_loop` are the exact per-step
semantics of a campaign's checkers-off masking run and checkers-on
detection run, factored out of :class:`~repro.faults.campaign.Campaign`
so the scalar path and the batched engine (:mod:`repro.cpu.batched`)
execute literally the same code.  A batched lane that leaves the
vectorized path ("eviction") resumes here from whatever step it had
reached, which is what makes batched classification identical to scalar
by construction rather than by re-implementation.

Both loops continue a run already positioned at ``step``: the caller has
either cold-started the core (the reference path) or materialized it
mid-flight from the batch sweep's live golden core.  The engine also
passes the golden checkpoint store, against which a run whose fault is
disarmed ends by reconvergence; the reference path passes none.
"""

from repro.argus.errors import ArgusError


def masking_loop(core, injector, schedule, golden, golden_final, limit,
                 step, store=None):
    """Continue a checkers-off masking run; returns (masked, activated_at,
    hung).

    ``golden_final`` is the golden run's masking view at halt
    (:meth:`CoreSnapshot.masking_view
    <repro.cpu.checkedcore.CoreSnapshot.masking_view>`), the projection
    a run that halts on the golden step is compared through.  With the
    golden checkpoint ``store``, a run whose fault is
    :attr:`~repro.faults.model.FaultSchedule.disarmed` (in a masking run,
    an applied state transient: a signal transient's removal ends the
    run) early-exits as masked once the core re-matches a checkpoint's
    masking view.
    """
    inject_at = schedule.inject_at
    golden_len = len(golden)
    while not core.halted and step < limit:
        if (store is not None and step > inject_at
                and step % store.interval == 0 and schedule.disarmed):
            snapshot = store.at(step)
            if (snapshot is not None
                    and snapshot.masking_view() == core.masking_view()):
                return True, None, False  # reconverged: tail == golden
        schedule.before_step(step, injector, core)
        record = core.step()
        if record is None:
            return False, step, True  # hung: liveness violation
        schedule.after_step(injector, core)
        if step < golden_len:
            if record != golden[step]:
                # First architectural impact: the fault is unmasked.
                # A transient is removed here (activation methodology);
                # classification needs nothing further.
                return False, step, False
        else:
            return False, step, False  # ran past golden: diverged
        step += 1
    if not core.halted:
        return False, step, True  # still running: livelock
    if step != golden_len:
        return False, step, False  # halted early
    if core.masking_view() != golden_final:
        return False, step, False
    return True, None, False


def detection_loop(core, injector, schedule, golden, limit, step,
                   base_cycle=0, base_block=0, store=None):
    """Continue a checkers-on detection run; returns (detected, event,
    hung).

    Latency is measured from the error's first architectural impact (its
    activation), as in Sec. 4.2; until the fault activates, the injection
    point itself is the reference.  ``base_cycle``/``base_block`` carry
    the golden cycle/block counters observed at the injection step when
    the caller enters past it (a batched lane materialized after a
    dormant period); entering at or before ``inject_at`` they are
    captured by the loop itself, exactly as the scalar path always has.

    With the golden checkpoint ``store``, a run whose fault is
    :attr:`~repro.faults.model.FaultSchedule.disarmed` ends undetected
    once the core re-matches a checkpoint's detection view
    (:meth:`~repro.cpu.checkedcore.CoreSnapshot.detection_view`): from
    there it is the golden run, which is detection-clean and halts.
    """
    inject_at = schedule.inject_at
    golden_len = len(golden)
    base_instret = inject_at
    diverged = False
    try:
        while not core.halted and step < limit:
            if step == inject_at:
                base_cycle = core.cycles
                base_block = core.block_index
            if (store is not None and step > inject_at
                    and step % store.interval == 0 and schedule.disarmed):
                snapshot = store.at(step)
                if (snapshot is not None and snapshot.detection_view()
                        == core.detection_view()):
                    return False, None, False  # reconverged: tail == golden
            schedule.before_step(step, injector, core)
            record = core.step()
            if record is None:
                return False, None, True  # hung undetected (shouldn't happen)
            schedule.after_step(injector, core)
            if (step >= inject_at and not diverged
                    and (step >= golden_len or record != golden[step])):
                diverged = True
                base_instret = step
                base_cycle = core.cycles
                base_block = core.block_index
                schedule.deactivate_on_divergence(injector)
            step += 1
    except ArgusError as exc:
        event = exc.event
        latency = {
            "instructions": max(event.instret - base_instret, 0),
            "cycles": max(event.cycle - base_cycle, 0),
            "blocks": max(event.block_index - base_block, 0),
        }
        return True, (event, latency), False
    return False, None, False
