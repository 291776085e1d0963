"""Start ``repro serve`` in this process, optionally traced.

``run.py`` launches the server through this bootstrap so the traced
run can install the benchmark's span wrappers inside the server
process.  Without ``--trace`` it is exactly ``python -m repro serve``;
with it, the spans are written to the given file once the server has
drained and returned.

    python perfbench/serve_boot.py [--trace FILE] -- <repro serve args>
"""

import time

STARTED = time.perf_counter()

import sys  # noqa: E402


def main(argv) -> int:
    trace = None
    if argv[:1] == ["--trace"]:
        trace, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    if trace is None:
        from repro import cli
        return cli.main(["serve", *argv])

    import spans
    recorder = spans.Recorder()
    start = time.perf_counter()
    from repro import cli
    recorder.add("repro.import_s", start, time.perf_counter())
    spans.install(recorder, serve=True)
    code = cli.main(["serve", *argv])
    recorder.dump(trace, STARTED, time.perf_counter())
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
