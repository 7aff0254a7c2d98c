"""One interpreter process of a benchmark run.

Usage: ``python3 bench/worker.py PLAN.json``. The plan names the checkout's
``src`` directory, the ``rholog`` command-line arguments (all queries of
the run), a mode and where to write the result. The clock starts before
``rholog`` is imported; ``rholog.cli.main`` then runs in this process
with stdout and stderr replaced by writers that timestamp every line.

Modes: ``plain`` runs the queries untraced; ``setup`` stops at the first
``?- `` echo; ``spans`` and ``counts`` install the tracers of
``tracing.py`` first. Queries stop being started once ``deadline_s``
has passed since the first echo. A query that outlives ``query_limit_s``
or raises out of ``main`` is recorded and ``main`` is started again on
the queries after it.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import traceback
from time import perf_counter


class StopRun(BaseException):
    """The run's deadline passed; the query just echoed is not attempted."""


class QueryTimeout(BaseException):
    """The query in progress passed its time limit."""


class Transcript:
    """Shared event list of (seconds since start, stream, line)."""

    def __init__(self, t0, deadline_s, query_limit_s, stop_at_first_echo):
        self.t0 = t0
        self.events = []
        self.first_echo = None
        self.deadline_s = deadline_s
        self.query_limit_s = query_limit_s
        self.stop_at_first_echo = stop_at_first_echo
        self.echoes = 0
        self.on_echo = None

    def line(self, stream, text):
        now = perf_counter() - self.t0
        if stream == "out" and text.startswith("?- "):
            if self.first_echo is None:
                self.first_echo = now
                if self.stop_at_first_echo:
                    self.events.append([now, stream, text])
                    raise StopRun
            elif self.deadline_s is not None and now - self.first_echo > self.deadline_s:
                raise StopRun
            self.echoes += 1
            if self.on_echo is not None:
                self.on_echo(self.echoes - 1)
            signal.setitimer(signal.ITIMER_REAL, self.query_limit_s)
        self.events.append([now, stream, text])


class LineWriter:
    """File-like stdout/stderr replacement feeding a Transcript."""

    def __init__(self, transcript, stream):
        self.transcript = transcript
        self.stream = stream
        self.pending = ""

    def write(self, s):
        self.pending += s
        while "\n" in self.pending:
            text, self.pending = self.pending.split("\n", 1)
            self.transcript.line(self.stream, text)
        return len(s)

    def flush(self):
        pass


def _on_alarm(signum, frame):
    raise QueryTimeout


def run(plan):
    head = plan["head"]
    with open(plan["queries_file"], encoding="utf-8") as fh:
        queries = json.load(fh)[:plan["count"]]
    t0 = perf_counter()
    src = plan["src"]
    sys.path.insert(0, src)
    import rholog.cli  # noqa: E402  (timed: part of set-up)

    if not os.path.abspath(rholog.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"rholog was imported from {rholog.cli.__file__}, not {src}")

    transcript = Transcript(t0, plan.get("deadline_s"), plan["query_limit_s"],
                            plan["mode"] == "setup")
    tracer = None
    if plan["mode"] in ("spans", "counts"):
        import tracing

        modules = tracing.load_modules()
        tracer = tracing.SpanTracer() if plan["mode"] == "spans" else tracing.CountTracer()
        tracer.install(modules)
        if plan["mode"] == "spans":
            transcript.on_echo = lambda i: setattr(tracer, "query_id", i)

    signal.signal(signal.SIGALRM, _on_alarm)
    saved = sys.stdout, sys.stderr
    sys.stdout = LineWriter(transcript, "out")
    sys.stderr = LineWriter(transcript, "err")
    done = 0
    try:
        while done < len(queries):
            argv = list(head)
            for q in queries[done:]:
                argv += ["--query", q]
            before = transcript.echoes
            outcome = None
            try:
                rholog.cli.main(argv)
            except StopRun:
                break
            except QueryTimeout:
                outcome = "timeout"
            except Exception as exc:  # a crash of the program is a failed query
                now = perf_counter() - t0
                for line in traceback.format_exc().splitlines():
                    transcript.events.append([now, "err", line])
                outcome = f"raised {type(exc).__name__}: {exc}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            started = transcript.echoes - before
            if outcome is None or started == 0:
                break
            transcript.events.append([perf_counter() - t0, "exc", outcome])
            done += started
    finally:
        sys.stdout, sys.stderr = saved

    result = {
        "events": transcript.events,
        "setup_s": transcript.first_echo,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if plan["mode"] == "spans":
        busy, solve_children, spans = tracer.summary()
        result.update(busy=busy, solve_children=solve_children, spans=spans,
                      installed=tracer.installed)
        tracer.dump(plan["spans_out"])
    elif plan["mode"] == "counts":
        result.update(counts=tracer.counts, installed=tracer.installed)
    with open(plan["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        run(json.load(fh))
