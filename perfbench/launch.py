"""Run one snvse CLI command in this process and record what it cost.

    python launch.py --stats FILE [--trace FILE --t0 T] -- <snvse arguments>

This does what ``python -m snvse.cli <arguments>`` does: import ``snvse.cli``
and exit with the code of ``main``. On the way out it writes to ``--stats``
the number of processes the command started (counted by an audit hook, so
any spawn API is seen) and its own peak resident memory.

With ``--trace`` it also wraps snvse's public functions (see ``tracing``)
before ``main`` runs, and writes the spans to that file. ``--t0`` is the
``time.perf_counter()`` reading the parent took just before starting this
process; CLOCK_MONOTONIC is shared across processes, so the interpreter's
own start-up becomes the ``cli.startup`` span.
"""

import time

T_START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

# subprocess.Popen normally forks through _posixsubprocess, which raises no
# os.* event; when it takes the posix_spawn path one start counts twice.
SPAWN_EVENTS = {"subprocess.Popen", "os.posix_spawn", "os.fork", "os.forkpty",
                "os.spawn", "os.system"}


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts = dict(zip(argv[:split:2], argv[1:split:2]))
    cli_args = argv[split + 1:]

    spawns = [0]

    def count_spawns(event, _args):
        if event in SPAWN_EVENTS:
            spawns[0] += 1

    sys.addaudithook(count_spawns)

    tracer = None
    if "--trace" in opts:
        from tracing import Tracer

        tracer = Tracer()
        tracer.record("cli.startup", float(opts["--t0"]), T_START)
    t_import = time.perf_counter()
    import snvse.cli

    if tracer is not None:
        tracer.record("cli.import", t_import, time.perf_counter())
        tracer.install()

    def run_main():
        try:
            return snvse.cli.main(cli_args)
        except SystemExit as exc:  # argparse usage errors and --version
            return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)

    if tracer is not None:
        code = tracer.call("cli.main", run_main, ())
    else:
        code = run_main()
    sys.stdout.flush()

    stats = {"spawns": spawns[0],
             "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    with open(opts["--stats"], "w") as fh:
        json.dump(stats, fh)
    if tracer is not None:
        doc = tracer.dump()
        doc["t_done"] = time.perf_counter()
        with open(opts["--trace"], "w") as fh:
            json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
