"""Run one claimlens CLI stage in this fresh process and report what it cost.

Usage: python3 perfbench/stage.py <src dir> <spec.json>

The spec holds the stage's argv for ``claimlens.cli.main``, where to write
the result, the fixed provider latency in milliseconds, and whether to trace.
The import of ``claimlens.cli`` is timed first, before any other module is
loaded here, so the cost a user pays on every ``claimlens`` invocation shows.
"""

import os
import sys
import time


def main() -> int:
    src_dir, spec_path = sys.argv[1], sys.argv[2]
    sys.path.insert(0, src_dir)
    started = time.perf_counter()
    import claimlens.cli as cli
    import_s = time.perf_counter() - started

    import json
    import resource

    import spans

    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    tally = spans.ProviderTally()
    spans.install_provider_hooks(tally, spec["latency_ms"] / 1000.0)
    recorder = None
    if spec["trace"]:
        recorder = spans.Recorder(spec["pass_id"], spec["stage"])
        spans.install(recorder)

    started = time.perf_counter()
    if recorder is None:
        rc = cli.main(spec["argv"])
    else:
        rc = recorder.span(f"cli.{spec['stage']}", cli.main, spec["argv"])
    main_s = time.perf_counter() - started

    result = {
        "rc": rc,
        "import_s": import_s,
        "main_s": main_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provider_calls": dict(tally.calls),
        "prompt_chars": tally.prompt_chars,
        "response_chars": tally.response_chars,
    }
    if recorder is not None:
        recorder.write(spec["spans"])
        result["index_get_calls"] = recorder.index_get_calls
        result["in_flight_max"] = recorder.in_flight_max
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    code = main()
    # Leave without the interpreter's teardown, which nothing here measures,
    # so that the next stage process starts sooner.
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)
