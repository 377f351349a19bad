"""Command-line interface: ``argus-repro <command>``.

Commands:

* ``asm SOURCE -o OBJ [--embed]`` - assemble (and optionally run the
  Argus signature embedder over) an assembly file, writing an object
  file (:mod:`repro.io.objfile`).
* ``dis OBJ_OR_SOURCE`` - disassemble.
* ``blocks SOURCE`` - show the basic-block/DCS map of the embedded form.
* ``lint [INPUTS...] [--all-workloads] [--format json]`` - static binary
  verifier (:mod:`repro.analysis`): CFG recovery, structural lints,
  DCS re-derivation and dataflow over sources, objects or the bundled
  workload suite; exits 1 on errors, 2 on load/embed failure.
* ``audit [INPUTS...] [--all-workloads] [--classes] [--format json]`` -
  static checker-coverage audit (:mod:`repro.analysis.coverage`):
  classifies every fault-injection point as detected / aliased(p) /
  blind / masked-by-construction from the checker algebra alone and
  lints the map (ARG014-ARG017); exits 1 on errors, 2 on load failure.
* ``run OBJ_OR_SOURCE [--checked] [--ways N]`` - execute; embedded
  objects (or ``--checked`` on source) run on the fully-checked core.
* ``trace SOURCE [--limit N]`` - disassembled execution trace plus the
  hot-block profile.
* ``inject SOURCE --signal NAME --bit N [--at K]`` - run with one
  injected fault and report which checker (if any) detected it.
* ``campaign [--workers N] [--journal PATH] [--resume]
  [--no-checkpoints] [--audit]`` - parallel, journaled,
  checkpoint-accelerated fault-injection campaign with live telemetry
  (Table 1); ``--audit`` cross-checks every empirical result against
  the static coverage map (a disagreement is a defect).
* ``report [--experiments N] [--workers N]`` - the full
  paper-vs-measured report.
* ``serve [--port N] [--data-dir DIR] [--workers N]`` - the persistent
  campaign job server (:mod:`repro.service`): submitted campaigns are
  queued, deduplicated against a content-addressed result store,
  journaled, and survive kills/restarts.
* ``submit / jobs / fetch`` - HTTP clients for a running server:
  submit a campaign spec, inspect job status, download results JSONL.
* ``fabric serve/submit/status`` - the federated campaign fabric
  (:mod:`repro.fabric`): ``fabric serve`` runs a job server as a fleet
  member (peer topology file, health probing, merged peer cache);
  ``fabric submit`` shards a campaign across the fleet with
  work-stealing and exactly-once accounting; ``fabric status`` probes
  every peer.
* ``journal-compact PATH`` - rewrite an append-only campaign journal
  dropping superseded/duplicate records and torn lines.

Source files are embedded automatically where Argus metadata is needed.
"""

import argparse
import sys

from repro.argus.errors import ArgusError
from repro.asm import assemble, disassemble_program, parse
from repro.cpu import CheckedCore, FastCore
from repro.cpu.tracer import format_profile, trace_execution
from repro.faults.injector import SignalInjector
from repro.faults.model import FaultSpec
from repro.io import load_embedded, load_program, save_embedded, save_program
from repro.toolchain import embed_program


def _read_source(path):
    with open(path) as handle:
        return handle.read()


def _load_any(path):
    """(program, embedded-or-None) from an object file or assembly source."""
    if str(path).endswith(".aro"):
        import json

        with open(path) as handle:
            kind = json.load(handle).get("kind")
        if kind == "embedded":
            # Verification failures must surface, never silently degrade
            # a protected binary to an unchecked one.
            embedded = load_embedded(path)
            return embedded.program, embedded
        return load_program(path), None
    source = _read_source(path)
    return assemble(parse(source)), None


def cmd_asm(args):
    source = _read_source(args.source)
    if args.embed:
        embedded = embed_program(source)
        save_embedded(embedded, args.output)
        print("embedded object: %d words (%d Signature insns, static "
              "overhead %.1f%%), entry DCS 0x%02x -> %s" % (
                  len(embedded.program.words), embedded.sigs_added,
                  100 * embedded.static_overhead, embedded.entry_dcs,
                  args.output))
    else:
        program = assemble(parse(source))
        save_program(program, args.output)
        print("object: %d words, %d data bytes -> %s" % (
            len(program.words), len(program.data), args.output))
    return 0


def cmd_dis(args):
    program, __ = _load_any(args.input)
    for address, word, text in disassemble_program(program):
        if word is None:
            print(text)
        else:
            print("  0x%06x  %08x  %s" % (address, word, text.strip()))
    return 0


def cmd_blocks(args):
    embedded = embed_program(_read_source(args.source))
    print("entry DCS: 0x%02x; %d blocks" % (embedded.entry_dcs,
                                            len(embedded.blocks)))
    for block in embedded.blocks.values():
        fields = ", ".join("%s=0x%02x" % kv for kv in block.fields.items())
        print("  0x%06x..0x%06x  %-14s DCS=0x%02x  {%s}" % (
            block.start, block.end - 4, block.kind, block.dcs, fields))
    return 0


def cmd_run(args):
    if str(args.input).endswith(".aro"):
        program, embedded = _load_any(args.input)
    elif args.checked:
        embedded = embed_program(_read_source(args.input))
        program = embedded.program
    else:
        program, embedded = _load_any(args.input)

    from repro.mem.hierarchy import MemoryConfig
    config = MemoryConfig.paper(ways=args.ways)
    if embedded is not None:
        core = CheckedCore(embedded, mem_config=config, detect=True)
        try:
            result = core.run(max_instructions=args.max_instructions)
        except ArgusError as exc:
            print("DETECTED: %s" % exc.event)
            return 2
        print("halted after %d instructions, %d cycles (%d block checks)"
              % (result.instructions, result.cycles, result.blocks_checked))
        regs = core.rf.values
    else:
        core = FastCore(program, mem_config=config)
        result = core.run(max_instructions=args.max_instructions)
        print("halted after %d instructions, %d cycles (CPI %.2f)"
              % (result.instructions, result.cycles, result.cpi))
        regs = core.regs
    for row in range(0, 32, 4):
        print("  " + "  ".join("r%-2d=0x%08x" % (i, regs[i])
                               for i in range(row, row + 4)))
    return 0


def cmd_trace(args):
    embedded = embed_program(_read_source(args.source))
    result = trace_execution(embedded, max_instructions=args.max_instructions,
                             keep_entries=args.limit)
    for entry in result.entries[:args.limit]:
        print(entry.formatted())
    if result.instructions > len(result.entries):
        print("  ... (%d more instructions)"
              % (result.instructions - len(result.entries)))
    print("\nhot blocks:")
    print(format_profile(result))
    return 0


def cmd_inject(args):
    embedded = embed_program(_read_source(args.source))
    spec = FaultSpec(target=args.signal, mask=1 << args.bit)
    injector = SignalInjector(spec)
    core = CheckedCore(embedded, injector=injector, detect=True)
    step = 0
    try:
        while not core.halted and step < args.max_instructions:
            if step == args.at:
                injector.enable()
            core.step()
            step += 1
    except ArgusError as exc:
        print("DETECTED by %s after %d instructions: %s" % (
            exc.event.checker, exc.event.instret - args.at, exc.event.detail))
        return 0
    print("no detection (fault masked or program finished); "
          "final pc=0x%x after %d instructions" % (core.pc, step))
    return 0


def _lint_targets(args):
    """Yield (name, report-or-None, failure-message-or-None) per target."""
    from repro.analysis import analyze_embedded, analyze_program
    from repro.io import load_raw
    from repro.toolchain import EmbedError, MAX_BLOCK_INSNS

    from repro.workloads import iter_analysis_targets

    if args.max_block is None:
        args.max_block = MAX_BLOCK_INSNS

    for name, workload in iter_analysis_targets(args.inputs,
                                                args.all_workloads):
        try:
            if workload is not None:
                report = analyze_embedded(workload.build_embedded(),
                                          max_block=args.max_block)
            elif str(name).endswith(".aro"):
                program, header = load_raw(name)
                embedded_kind = header.get("kind") == "embedded"
                report = analyze_program(
                    program,
                    expected_entry_dcs=header.get("entry_dcs"),
                    check_signatures=embedded_kind,
                    max_block=args.max_block)
            elif args.plain:
                report = analyze_program(assemble(parse(_read_source(name))),
                                         check_signatures=False,
                                         max_block=args.max_block)
            else:
                report = analyze_embedded(
                    embed_program(_read_source(name),
                                  max_block=args.max_block),
                    max_block=args.max_block)
        except (OSError, EmbedError, ValueError) as exc:
            yield name, None, "%s: %s" % (type(exc).__name__, exc)
            continue
        yield name, report, None


def cmd_lint(args):
    import json

    if not args.inputs and not args.all_workloads:
        print("lint: nothing to do (give a source/object file or "
              "--all-workloads)", file=sys.stderr)
        return 2
    failed_load = False
    failed_lint = False
    results = []
    for name, report, failure in _lint_targets(args):
        if report is None:
            failed_load = True
            results.append({"target": str(name), "ok": False,
                            "failure": failure})
            if args.format == "text":
                print("%s: FAILED to load/embed: %s" % (name, failure))
            continue
        if not report.ok:
            failed_lint = True
        results.append({"target": str(name), **report.to_dict()})
        if args.format == "text":
            summary = ("clean" if not report.diagnostics else
                       "%d error(s), %d warning(s)"
                       % (len(report.errors), len(report.warnings)))
            print("%s: %s" % (name, summary))
            for diagnostic in report.diagnostics:
                print("  " + diagnostic.format())
    if args.format == "json":
        print(json.dumps({"ok": not (failed_load or failed_lint),
                          "targets": results}, indent=2, sort_keys=True))
    if failed_load:
        return 2
    return 1 if failed_lint else 0


def _audit_targets(args):
    """Yield (name, coverage-map-or-None, embedded-or-None, failure-or-None).

    With no inputs at all the audit runs once over the full injection
    population under the every-instruction-class-exercised profile - the
    paper-level claim; per-workload maps reclassify signals that
    workload provably never drives.  The embedded binary rides along so
    ``--timeline`` can replay the golden run without re-embedding.
    """
    from repro.analysis.coverage import build_static_coverage_map
    from repro.toolchain import EmbedError
    from repro.workloads import iter_analysis_targets

    targets = list(iter_analysis_targets(args.inputs, args.all_workloads))
    if not targets:
        yield "<population>", build_static_coverage_map(), None, None
        return
    for name, workload in targets:
        try:
            if workload is not None:
                embedded = workload.build_embedded()
            elif str(name).endswith(".aro"):
                embedded = load_embedded(name)
            else:
                embedded = embed_program(_read_source(name))
        except (OSError, EmbedError, ValueError) as exc:
            yield name, None, None, "%s: %s" % (type(exc).__name__, exc)
            continue
        yield name, build_static_coverage_map(embedded), embedded, None


def _audit_timeline(embedded, coverage_map, report):
    """Replay the golden run, cross-check timeline verdicts against the
    audit classes (ARG019 into ``report``), and return summary stats."""
    from repro.analysis.masking import audit_timeline, timeline_summary
    from repro.faults.campaign import Campaign

    timeline = Campaign(embedded=embedded).timeline()
    audit_timeline(timeline, coverage_map, report)
    return timeline_summary(timeline, coverage_map)


def cmd_audit(args):
    """Static checker-coverage audit: classify every injection point
    analytically and lint the result (ARG014-ARG019)."""
    import json

    from repro.analysis.coverage import OUTCOMES, audit_coverage_map

    failed_load = False
    failed_audit = False
    results = []
    for name, coverage_map, embedded, failure in _audit_targets(args):
        if coverage_map is None:
            failed_load = True
            results.append({"target": str(name), "ok": False,
                            "failure": failure})
            if args.format == "text":
                print("%s: FAILED to load/embed: %s" % (name, failure))
            continue
        report = audit_coverage_map(coverage_map)
        timeline_stats = None
        if args.timeline and embedded is not None:
            timeline_stats = _audit_timeline(embedded, coverage_map, report)
        if not report.ok:
            failed_audit = True
        entry = {"target": str(name), **coverage_map.to_dict(),
                 "audit": report.to_dict()}
        if timeline_stats is not None:
            entry["timeline"] = timeline_stats
        results.append(entry)
        if args.format == "text":
            counts = coverage_map.outcome_counts()
            weights = coverage_map.outcome_weights()
            summary = "  ".join(
                "%s=%d (%.1f%%)" % (outcome, counts[outcome],
                                    100 * weights.get(outcome, 0.0))
                for outcome in OUTCOMES + ("unknown",)
                if outcome in counts)
            print("%s: %d points  %s" % (name, len(coverage_map), summary))
            if args.classes:
                total = sum(e.weight for e in coverage_map.entries) or 1.0
                for row in coverage_map.classes():
                    label = row["target"] + ("+2bit" if row["double_bit"]
                                             else "")
                    owner = "/".join(row["detected_by"]) or "-"
                    print("  %-24s %-22s by=%-20s %5d pts  %6.3f%% wt"
                          % (label, row["outcome"], owner, row["points"],
                             100 * row["weight"] / total))
            if timeline_stats is not None:
                for duration, stats in timeline_stats.items():
                    if duration == "times":
                        continue
                    print("  timeline[%s]: %d probes  complete %.1f%%  "
                          "partial %.1f%%  unknown %.1f%%"
                          % (duration, stats["probes"],
                             100 * stats["complete_fraction"],
                             100 * stats["partial"] / (stats["probes"] or 1),
                             100 * stats["unknown"] / (stats["probes"] or 1)))
            for diagnostic in report.diagnostics:
                print("  " + diagnostic.format())
    if args.format == "json":
        print(json.dumps({"ok": not (failed_load or failed_audit),
                          "targets": results}, indent=2, sort_keys=True))
    if failed_load:
        return 2
    return 1 if failed_audit else 0


def cmd_characterize(args):
    from repro.eval.characterization import (
        characterize_suite, format_characterization)
    from repro.workloads import ALL_WORKLOADS, WORKLOADS
    if args.workloads:
        targets = [WORKLOADS[name] for name in args.workloads]
    else:
        targets = ALL_WORKLOADS
    print(format_characterization(characterize_suite(targets)))
    return 0


def cmd_fuzz(args):
    from repro.workloads.fuzz import generate_program
    source = generate_program(args.seed, segments=args.segments)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(source + "\n")
        print("wrote %s" % args.output)
    else:
        print(source)
    if args.run:
        embedded = embed_program(source)
        core = CheckedCore(embedded, detect=True)
        result = core.run(max_instructions=500_000)
        print("# checked run: %d instructions, %d block checks, result 0x%08x"
              % (result.instructions, result.blocks_checked,
                 core.load_word(embedded.program.addr_of("result"))))
    return 0


def cmd_report(args):
    from repro.eval.report import generate_report
    from repro.runner.telemetry import LegacyPrintTelemetry
    generate_report(experiments=args.experiments,
                    telemetry=LegacyPrintTelemetry(max(args.experiments // 4, 1)),
                    workers=args.workers)
    return 0


def _report_summary(duration, summary):
    """Print one duration's quadrants and checker attribution; returns
    its entry of the ``--json`` summaries."""
    from repro.eval.detectors import format_attribution

    fractions = summary.fractions()
    print("[%s] %d experiments" % (duration, summary.total))
    print("  silent %.2f%% | unmasked+detected %.2f%% | "
          "masked+undetected %.2f%% | DME %.2f%%" % (
              100 * fractions["unmasked_undetected"],
              100 * fractions["unmasked_detected"],
              100 * fractions["masked_undetected"],
              100 * fractions["masked_detected"]))
    print("  " + format_attribution(summary).replace("\n", "\n  "))
    return {
        "experiments": summary.total,
        "fractions": fractions,
        "checker_counts": summary.checker_counts,
        "unmasked_coverage": summary.unmasked_coverage,
        "masked_detection_rate": summary.masked_detection_rate,
    }


def cmd_campaign(args):
    """First-class campaign runner: parallel, journaled, resumable."""
    import json

    from repro.faults.campaign import Campaign
    from repro.faults.model import PERMANENT, TRANSIENT
    from repro.runner.telemetry import (JsonlTelemetry, NullTelemetry,
                                        StderrTelemetry, TeeTelemetry)

    durations = ((TRANSIENT, PERMANENT) if args.duration == "both"
                 else (args.duration,))
    campaign = Campaign(seed=args.seed,
                        use_checkpoints=not args.no_checkpoints)
    sinks = []
    if not args.quiet:
        sinks.append(StderrTelemetry())
    if args.telemetry_jsonl:
        sinks.append(JsonlTelemetry(args.telemetry_jsonl))
    if not sinks:
        telemetry = NullTelemetry()
    elif len(sinks) == 1:
        telemetry = sinks[0]
    else:
        telemetry = TeeTelemetry(*sinks)
    if args.audit:
        from repro.analysis.coverage import (
            build_static_coverage_map, differential_audit,
            differential_summary)
        coverage_map = build_static_coverage_map(campaign.embedded,
                                                 points=campaign.points)
    defects = []
    dump = {}
    for duration in durations:
        summary = campaign.run(
            experiments=args.experiments, duration=duration,
            workers=args.workers, journal=args.journal, resume=args.resume,
            telemetry=telemetry, keep_results=args.audit,
            timeout=args.timeout)
        dump[duration] = _report_summary(duration, summary)
        if args.audit:
            found = differential_audit(summary.results, coverage_map)
            defects.extend(found)
            print("  differential audit: %d disagreement(s)" % len(found))
            for defect in found:
                print("    " + defect.format())
            dump[duration]["differential_audit"] = differential_summary(
                summary.results, coverage_map, disagreements=found)
            dump[duration]["audit_disagreements"] = [
                defect.format() for defect in found]
    telemetry.close()
    perf = campaign.perf_rates()
    if not args.quiet and perf["experiments"]:
        print("  perf: %.1f exp/s | %.0f instr/s | eviction rate %.2f "
              "(%d lanes, %d synthesized)" % (
                  perf["experiments_per_second"],
                  perf["instructions_per_second"],
                  perf["eviction_rate"], perf["lanes"],
                  perf["synthesized_lanes"]))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"seed": args.seed, "summaries": dump, "perf": perf},
                      handle, indent=2, sort_keys=True)
        print("wrote %s" % args.json)
    return 1 if defects else 0


# -- campaign service --------------------------------------------------------

def cmd_serve(args):
    """Run the persistent campaign job server until SIGTERM/SIGINT.

    With ``--topology`` (the ``fabric serve`` form) the node joins a
    fleet: it probes its peers, serves ``/peers``, and answers cache
    misses from the merged peer store before simulating anything.
    """
    import asyncio
    import os
    import signal

    from repro.service.scheduler import JobScheduler
    from repro.service.server import ServiceServer
    from repro.service.store import open_store

    topology = None
    if getattr(args, "topology", None):
        from repro.fabric import PeerStore, Topology
        topology = Topology.load(args.topology,
                                 probe_interval=args.probe_interval)

    data_dir = os.path.abspath(args.data_dir)
    os.makedirs(data_dir, exist_ok=True)
    store = open_store(args.store or os.path.join(data_dir, "store.sqlite"))
    scheduler = JobScheduler(store, data_dir, workers=args.workers,
                             job_runners=args.job_runners,
                             retries=args.retries,
                             remote_store=(None if topology is None
                                           else PeerStore(topology)))
    recovered = scheduler.recover()
    scheduler.start()
    server = ServiceServer(scheduler, host=args.host, port=args.port,
                           topology=topology)

    async def _serve():
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, ValueError):
                pass  # platform without signal support in the loop
        host, port = await server.start_async()
        if topology is not None:
            topology.set_self("http://%s:%d" % (host, port))
            topology.start()
            print("fabric member: %d peer(s) in %s"
                  % (len(topology.peers), args.topology), flush=True)
        print("argus-repro service listening on http://%s:%d (data: %s)"
              % (host, port, data_dir), flush=True)
        if recovered:
            print("re-enqueued %d unfinished job(s): %s"
                  % (len(recovered),
                     " ".join(job.job_id for job in recovered)), flush=True)
        await stop.wait()
        print("drain: stopping after the result being committed, "
              "unfinished jobs resume on restart ...", flush=True)

    asyncio.run(_serve())
    if topology is not None:
        topology.stop()
    scheduler.drain()
    scheduler.shutdown(wait=True, timeout=args.drain_timeout)
    store.close()
    print("drained; state persisted under %s" % data_dir)
    return 0


def _service_client(args):
    from repro.service.client import ServiceClient

    return ServiceClient(args.url)


def _print_job(job):
    done = job["total"] or "?"
    print("%s  %-8s %5s/%-5s  cached=%s executed=%s"
          % (job["id"], job["state"], job["completed"], done,
             job["cached"], job["executed"]))
    for duration, summary in sorted(job.get("summaries", {}).items()):
        fractions = summary["fractions"]
        print("  [%s] %d experiments | silent %.2f%% | detected %.2f%% | "
              "masked %.2f%% | DME %.2f%%" % (
                  duration, summary["experiments"],
                  100 * fractions["unmasked_undetected"],
                  100 * fractions["unmasked_detected"],
                  100 * fractions["masked_undetected"],
                  100 * fractions["masked_detected"]))
    if job.get("error"):
        print("  error: %s" % job["error"])


def cmd_submit(args):
    from repro.service.client import ServiceError

    spec = {"experiments": args.experiments, "duration": args.duration,
            "seed": args.seed, "priority": args.priority}
    if args.source:
        spec["source"] = _read_source(args.source)
        spec["workload"] = None
    else:
        spec["workload"] = args.workload
    if args.no_checkpoints:
        spec["use_checkpoints"] = False
    client = _service_client(args)
    try:
        job = client.submit(spec)
    except ServiceError as exc:
        print("submit failed: %s" % exc, file=sys.stderr)
        return 2
    print("submitted %s (%s)" % (job["id"], job["state"]))
    if not args.wait:
        return 0
    job = client.wait(job["id"], timeout=args.timeout)
    _print_job(job)
    return 0 if job["state"] == "done" else 1


def cmd_jobs(args):
    import json

    from repro.service.client import ServiceError

    client = _service_client(args)
    try:
        if args.job_id:
            job = client.job(args.job_id)
            if args.format == "json":
                print(json.dumps(job, indent=2, sort_keys=True))
            else:
                _print_job(job)
            return 0
        jobs = client.jobs()
    except ServiceError as exc:
        print("jobs failed: %s" % exc, file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps({"jobs": jobs}, indent=2, sort_keys=True))
        return 0
    if not jobs:
        print("no jobs")
        return 0
    for job in jobs:
        _print_job(job)
    return 0


def cmd_fetch(args):
    import json

    from repro.service.client import ServiceError

    client = _service_client(args)
    try:
        lines = client.results_lines(args.job_id)
    except ServiceError as exc:
        print("fetch failed: %s" % exc, file=sys.stderr)
        return 2
    text = "".join(json.dumps(line, sort_keys=True) + "\n" for line in lines)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text)
        print("wrote %d journal line(s) to %s" % (len(lines), args.output))
    else:
        sys.stdout.write(text)
    return 0


# -- campaign fabric ---------------------------------------------------------

def cmd_fabric_submit(args):
    """Shard one campaign across the fleet named by the topology file."""
    import json

    from repro.fabric import FabricCoordinator, FabricError, Topology

    topology = Topology.load(args.topology)
    spec = {"experiments": args.experiments, "duration": args.duration,
            "seed": args.seed}
    if args.source:
        spec["source"] = _read_source(args.source)
        spec["workload"] = None
    else:
        spec["workload"] = args.workload
    if args.no_checkpoints:
        spec["use_checkpoints"] = False
    journal = args.journal or "fabric-seed%s.journal.jsonl" % args.seed
    log = None if args.quiet else (
        lambda message: print(message, file=sys.stderr, flush=True))
    coordinator = FabricCoordinator(
        spec, topology, journal,
        batch_experiments=args.batch_experiments,
        steal_after=args.steal_after, on_log=log)
    try:
        summaries = coordinator.run(timeout=args.timeout)
    except FabricError as exc:
        print("fabric submit failed: %s" % exc, file=sys.stderr)
        return 2
    dump = {}
    for duration, summary in summaries.items():
        dump[duration] = _report_summary(duration, summary)
    status = coordinator.status()
    print("fabric: %d batches | dispatched %d | stolen %d | reassigned %d"
          % (status["batches"], status["dispatched"], status["stolen"],
             status["reassigned"]))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump({"seed": args.seed, "summaries": dump,
                       "fabric": status}, handle, indent=2, sort_keys=True)
        print("wrote %s" % args.json)
    return 0


def cmd_fabric_status(args):
    """Probe every peer in the topology and report the fleet's health."""
    import json

    from repro.fabric import Topology

    topology = Topology.load(args.topology)
    topology.probe_all()
    payload = topology.to_dict()
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for peer in payload["peers"]:
            load = peer["load"]
            if peer["alive"]:
                jobs = load.get("jobs") or {}
                detail = "queue=%s running=%s done=%s store=%s" % (
                    load.get("queue_depth"), jobs.get("running", 0),
                    jobs.get("done", 0), load.get("store_rows"))
            else:
                detail = "last error: %s" % peer["last_error"]
            print("%-16s %-28s %-5s %s"
                  % (peer["name"], peer["url"],
                     "up" if peer["alive"] else "DOWN", detail))
    alive = sum(1 for peer in payload["peers"] if peer["alive"])
    print("%d/%d peers alive" % (alive, len(payload["peers"])))
    return 0 if alive else 1


def cmd_journal_compact(args):
    from repro.runner.journal import Journal

    journal = Journal(args.path)
    stats = journal.compact()
    print("%s: %d result(s), dropped %d superseded/duplicate and %d torn "
          "line(s)" % (args.path, stats["results"],
                       stats["duplicates_dropped"], stats["torn_dropped"]))
    return 0


def cmd_diagnose(args):
    """Rank candidate fault families from a campaign journal."""
    import json

    from repro.analysis.coverage import build_static_coverage_map
    from repro.diagnosis import build_family_profiles, diagnose_records
    from repro.runner.journal import Journal
    from repro.workloads import iter_analysis_targets

    journal = Journal(args.journal).load()
    records = [entry for entry in journal.records.values()]
    if not records:
        print("diagnose: journal %s holds no result records" % args.journal,
              file=sys.stderr)
        return 2
    embedded = None
    if args.workload:
        ((__, workload),) = iter_analysis_targets((args.workload,))
        if workload is None:
            print("diagnose: unknown workload %r" % args.workload,
                  file=sys.stderr)
            return 2
        embedded = workload.build_embedded()
    coverage_map = build_static_coverage_map(embedded=embedded)
    profiles = build_family_profiles(coverage_map)
    ranking = diagnose_records(records, profiles=profiles)
    if ranking.detections == 0:
        print("diagnose: no detected records (nothing to attribute)",
              file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps(ranking.to_dict(limit=args.top), indent=2,
                         sort_keys=True))
        return 0
    print("%d detection(s) across %d record(s); top %d candidate "
          "families:" % (ranking.detections, len(records), args.top))
    for rank, (profile, score) in enumerate(ranking.entries[:args.top],
                                            start=1):
        print("  %2d. %-24s score %8.2f  (weight %.1f, checkers: %s)"
              % (rank, profile.label, score, profile.weight,
                 "/".join(sorted(profile.detected_by)) or "-"))
    return 0


def cmd_repair(args):
    """Localize and undo storage bit flips in an embedded object file."""
    import json

    from repro.diagnosis import repair_program
    from repro.io import load_raw, save_embedded
    from repro.io.objfile import ObjFileError
    from repro.toolchain import EmbedError, verify_embedding

    try:
        program, header = load_raw(args.input)
    except (OSError, ObjFileError, ValueError) as exc:
        print("repair: cannot load %s: %s" % (args.input, exc),
              file=sys.stderr)
        return 2
    if header.get("kind") != "embedded":
        print("repair: %s is not an embedded object" % args.input,
              file=sys.stderr)
        return 2
    outcome = repair_program(program,
                             entry_dcs=header.get("entry_dcs"),
                             text_crc=header.get("text_crc"),
                             max_flips=args.max_flips)
    if args.format == "json":
        print(json.dumps(outcome.to_dict(), indent=2, sort_keys=True))
    else:
        if outcome.status == "clean":
            print("%s: intact - all signatures verify" % args.input)
        elif outcome.status == "repaired":
            print("%s: ARG020 corrupted word(s) localized and repaired:"
                  % args.input)
            for address, old, new in outcome.edits:
                print("  0x%08x: 0x%08x -> 0x%08x" % (address, old, new))
        elif outcome.status == "ambiguous":
            print("%s: ARG021 ambiguous - %d minimal candidate repairs; "
                  "none applied" % (args.input, len(outcome.candidates)))
            for i, candidate in enumerate(outcome.candidates, start=1):
                for address, old, new in candidate:
                    print("  [%d] 0x%08x: 0x%08x -> 0x%08x"
                          % (i, address, old, new))
        else:
            print("%s: ARG022 unrepairable within %d-flip budget "
                  "(%d candidate(s) verified)"
                  % (args.input, args.max_flips, outcome.verified))
            for finding in outcome.findings:
                print("  " + finding.format())
    if outcome.status == "repaired" and args.output:
        try:
            embedded = verify_embedding(outcome.program)
        except EmbedError as exc:
            print("repair: repaired image fails re-embedding: %s" % exc,
                  file=sys.stderr)
            return 1
        save_embedded(embedded, args.output)
        if args.format == "text":
            print("repaired object written to %s" % args.output)
    if outcome.status in ("clean", "repaired"):
        return 0
    return 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="argus-repro",
        description="Argus (MICRO 2007) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("asm", help="assemble (+optionally embed) a source file")
    p.add_argument("source")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--embed", action="store_true",
                   help="run the Argus signature embedder")
    p.set_defaults(func=cmd_asm)

    p = sub.add_parser("dis", help="disassemble an object or source file")
    p.add_argument("input")
    p.set_defaults(func=cmd_dis)

    p = sub.add_parser("blocks", help="show the basic-block/DCS map")
    p.add_argument("source")
    p.set_defaults(func=cmd_blocks)

    p = sub.add_parser(
        "lint", help="statically verify sources/objects without running them")
    p.add_argument("inputs", nargs="*",
                   help="assembly sources (embedded first) or .aro objects")
    p.add_argument("--all-workloads", action="store_true",
                   help="also lint every bundled workload's embedded binary")
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.add_argument("--plain", action="store_true",
                   help="lint sources as plain (un-embedded) binaries")
    p.add_argument("--max-block", type=int, default=None,
                   help="override the MAX_BLOCK_INSNS bound")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "audit",
        help="static checker-coverage audit: prove detection/aliasing "
             "per fault bit without injection")
    p.add_argument("inputs", nargs="*",
                   help="assembly sources or .aro objects; none = audit "
                        "the full injection population")
    p.add_argument("--all-workloads", action="store_true",
                   help="also audit every bundled workload's embedded "
                        "binary under its own exercise profile")
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.add_argument("--classes", action="store_true",
                   help="print the per-signal-class breakdown")
    p.add_argument("--timeline", action="store_true",
                   help="also replay the golden run and cross-check "
                        "per-(point, time) masking-timeline verdicts "
                        "against the audit classes (ARG019)")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("run", help="execute an object or source file")
    p.add_argument("input")
    p.add_argument("--checked", action="store_true",
                   help="embed and run with all Argus checkers armed")
    p.add_argument("--ways", type=int, default=1, choices=(1, 2))
    p.add_argument("--max-instructions", type=int, default=50_000_000)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("trace", help="disassembled trace + block profile")
    p.add_argument("source")
    p.add_argument("--limit", type=int, default=40,
                   help="trace entries to print")
    p.add_argument("--max-instructions", type=int, default=200_000)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("inject", help="run with one injected signal fault")
    p.add_argument("source")
    p.add_argument("--signal", required=True,
                   help="signal name, e.g. ex.alu.result")
    p.add_argument("--bit", type=int, default=0)
    p.add_argument("--at", type=int, default=0,
                   help="instruction index at which the fault activates")
    p.add_argument("--max-instructions", type=int, default=1_000_000)
    p.set_defaults(func=cmd_inject)

    p = sub.add_parser("characterize", help="workload characterization table")
    p.add_argument("workloads", nargs="*",
                   help="workload names (default: the whole suite)")
    p.set_defaults(func=cmd_characterize)

    p = sub.add_parser("fuzz", help="generate (and optionally run) a random program")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--segments", type=int, default=6)
    p.add_argument("-o", "--output")
    p.add_argument("--run", action="store_true",
                   help="also run it on the checked core")
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("report", help="full paper-vs-measured report")
    p.add_argument("--experiments", type=int, default=800)
    p.add_argument("--workers", type=int, default=None,
                   help="campaign worker processes (0 = one per CPU)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "campaign",
        help="parallel, journaled fault-injection campaign (Table 1)")
    p.add_argument("--experiments", type=int, default=400,
                   help="experiments per error-type row")
    p.add_argument("--duration", default="both",
                   choices=("transient", "permanent", "both"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (0 = one per CPU, 1 = in-process)")
    p.add_argument("--journal",
                   help="append-only JSONL result journal (crash-safe)")
    p.add_argument("--resume", action="store_true",
                   help="skip experiments already in the journal")
    p.add_argument("--timeout", type=float, default=None,
                   help="seconds per experiment before a worker batch "
                        "is considered hung")
    p.add_argument("--no-checkpoints", action="store_true",
                   help="reference path: replay every run from instruction "
                        "0 instead of using the engine and golden-run "
                        "snapshots (identical results, much slower)")
    p.add_argument("--telemetry-jsonl",
                   help="also append every telemetry event as a JSON "
                        "line to this file")
    p.add_argument("--json", help="write a machine-readable summary here")
    p.add_argument("--audit", action="store_true",
                   help="cross-check every result against the static "
                        "coverage map; any disagreement exits 1")
    p.add_argument("--quiet", action="store_true",
                   help="suppress live progress telemetry on stderr")
    p.set_defaults(func=cmd_campaign)

    def _serve_args(p):
        p.add_argument("--host", default="127.0.0.1")
        p.add_argument("--port", type=int, default=8471,
                       help="TCP port (0 = pick a free one; the bound "
                            "address is published in <data-dir>/server.json)")
        p.add_argument("--data-dir", default="argus-service",
                       help="job metadata, journals, events and the result "
                            "store live here (survives restarts)")
        p.add_argument("--store", default=None,
                       help="SQLite result-store path "
                            "(default: <data-dir>/store.sqlite)")
        p.add_argument("--workers", type=int, default=1,
                       help="campaign worker processes per job "
                            "(0 = one per available CPU, 1 = in-process)")
        p.add_argument("--job-runners", type=int, default=1,
                       help="jobs executing concurrently")
        p.add_argument("--retries", type=int, default=3,
                       help="fresh-pool attempts after a worker crash or "
                            "hang, then in-process")
        p.add_argument("--drain-timeout", type=float, default=None,
                       help="seconds to wait for running jobs to stop "
                            "on drain")

    p = sub.add_parser(
        "serve",
        help="run the persistent campaign job server (repro.service)")
    _serve_args(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("submit", help="submit a campaign to a running server")
    p.add_argument("--url", default="http://127.0.0.1:8471")
    p.add_argument("--workload", default="stress",
                   help="bundled workload name (default: the stress test)")
    p.add_argument("--source", default=None,
                   help="submit this assembly file instead of a workload")
    p.add_argument("--experiments", type=int, default=400)
    p.add_argument("--duration", default="both",
                   choices=("transient", "permanent", "both"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--priority", type=int, default=0,
                   help="higher runs first")
    p.add_argument("--no-checkpoints", action="store_true",
                   help="run the job on the cold reference path")
    p.add_argument("--wait", action="store_true",
                   help="block until the job finishes and print its summary")
    p.add_argument("--timeout", type=float, default=3600.0,
                   help="--wait timeout in seconds")
    p.set_defaults(func=cmd_submit)

    p = sub.add_parser("jobs", help="list jobs (or show one) on a server")
    p.add_argument("job_id", nargs="?", help="job id (default: list all)")
    p.add_argument("--url", default="http://127.0.0.1:8471")
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.set_defaults(func=cmd_jobs)

    p = sub.add_parser("fetch", help="download a job's results JSONL")
    p.add_argument("job_id")
    p.add_argument("--url", default="http://127.0.0.1:8471")
    p.add_argument("-o", "--output", default=None,
                   help="write here instead of stdout")
    p.set_defaults(func=cmd_fetch)

    p = sub.add_parser(
        "fabric",
        help="federate job-service nodes into one campaign fleet")
    fabric = p.add_subparsers(dest="fabric_command", required=True)

    p = fabric.add_parser(
        "serve",
        help="run one fleet node (a job server that probes its peers "
             "and answers cache misses from the merged peer store)")
    _serve_args(p)
    p.add_argument("--topology", required=True,
                   help='JSON peer list: {"peers": [{"name", "url"}, ...]}')
    p.add_argument("--probe-interval", type=float, default=1.0,
                   help="seconds between background peer health probes")
    p.set_defaults(func=cmd_serve)

    p = fabric.add_parser(
        "submit",
        help="shard one campaign across the fleet and aggregate the "
             "(bit-identical) summary")
    p.add_argument("--topology", required=True,
                   help="JSON peer list naming every fleet node")
    p.add_argument("--workload", default="stress",
                   help="bundled workload name (default: the stress test)")
    p.add_argument("--source", default=None,
                   help="submit this assembly file instead of a workload")
    p.add_argument("--experiments", type=int, default=400)
    p.add_argument("--duration", default="both",
                   choices=("transient", "permanent", "both"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-checkpoints", action="store_true")
    p.add_argument("--journal", default=None,
                   help="coordinator journal (crash-safe exactly-once "
                        "accounting; reuse the same path to resume; "
                        "default: fabric-seed<seed>.journal.jsonl)")
    p.add_argument("--batch-experiments", type=int, default=None,
                   help="experiments per dispatched batch (default: auto)")
    p.add_argument("--steal-after", type=float, default=30.0,
                   help="seconds before a running batch is duplicated "
                        "onto an idle peer (work stealing)")
    p.add_argument("--timeout", type=float, default=None,
                   help="overall campaign deadline in seconds")
    p.add_argument("--json", help="write a machine-readable summary here")
    p.add_argument("--quiet", action="store_true",
                   help="suppress dispatch/steal progress on stderr")
    p.set_defaults(func=cmd_fabric_submit)

    p = fabric.add_parser(
        "status", help="probe every peer and report the fleet's health")
    p.add_argument("--topology", required=True)
    p.add_argument("--format", default="text", choices=("text", "json"))
    p.set_defaults(func=cmd_fabric_status)

    p = sub.add_parser(
        "journal-compact",
        help="rewrite a campaign journal dropping superseded/duplicate "
             "records and torn lines")
    p.add_argument("path")
    p.set_defaults(func=cmd_journal_compact)

    p = sub.add_parser(
        "diagnose",
        help="rank candidate fault locations from a campaign journal's "
             "checker attributions")
    p.add_argument("journal", help="campaign journal (JSONL) to diagnose")
    p.add_argument("--workload", default=None,
                   help="bundled workload name; sharpens the coverage map "
                        "to that program's instruction mix")
    p.add_argument("--top", type=int, default=10,
                   help="number of ranked families to print (default 10)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser(
        "repair",
        help="localize and undo storage bit flips in an embedded object "
             "using its signatures (ARG020/ARG021/ARG022)")
    p.add_argument("input", help="embedded .aro object to repair")
    p.add_argument("-o", "--output", default=None,
                   help="write the repaired object here on success")
    p.add_argument("--max-flips", type=int, default=3,
                   help="largest corruption (bit count) to search for "
                        "(default 3)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_repair)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
