"""The rholog benchmark: seeded workloads through the batch command line.

Run from anywhere inside a checkout::

    python3 bench/run.py --workload sort --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 55 --trace 1
    python3 bench/run.py --compare OLD_RESULTS NEW_RESULTS

A run generates its inputs from the seed (``workloads.py``) and drives
``rholog.cli.main`` in fresh processes (``worker.py``), the way
``rholog --load F [--prox P] --query Q ...`` does, with all of the run's
queries in one call. Every line the program prints is timestamped, so
per-query and first-answer times come from the transcript, and every
answer block is checked against a reference that does not use the
engine. A query fails if it prints ``error:``, raises, passes its time
limit or prints a block that differs from the reference; the run goes on.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: one
process starts queries until ``--seconds`` have passed, and set-up-only
processes run before and after it. ``--trace 1`` reports the per-layer
metrics: a fixed number of queries run once untraced, once with spans
and twice with counters, and the run checks that the transcripts are
identical and the counts repeat exactly.

Every run writes its result, with the environment it ran in, to
``.bench_work/results`` (or ``--out``). ``--compare A B`` prints, per
workload and metric, each result set's median and quartiles and the
ratio B/A, and marks a metric unresolved where a set's spread exceeds
the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
SETUP_PROBES = 8  # set-up-only processes per untraced run, besides the main one
QUERY_LIMIT_S = 10.0
# Fixed, so that runs of different commits report the same percentile; a
# run at the stated sizes starts well over 100 queries, which leaves at
# least ten samples beyond it.
TAIL_PCT = 90
CHILD_TIMEOUT_S = 150


class HarnessError(Exception):
    """The benchmark itself cannot produce a result."""


def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def check_checkout():
    needed = [ROOT / "src" / "rholog" / "cli.py"]
    needed += [ROOT / p for p in ("programs/sorting.rho", "programs/rewriting.rho",
                                  "programs/proximity.rho")]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise HarnessError("not a rholog checkout; missing " + ", ".join(missing))


# -- child processes -----------------------------------------------------------


def run_child(workdir, tag, mode, head, count, deadline_s=None):
    """Run the first ``count`` queries of the run in a fresh process."""
    plan = {
        "src": str(ROOT / "src"),
        "head": head,
        "queries_file": str(workdir / "queries.json"),
        "count": count,
        "mode": mode,
        "deadline_s": deadline_s,
        "query_limit_s": QUERY_LIMIT_S,
        "out": str(workdir / f"{tag}.result.json"),
        "spans_out": str(workdir / "spans.json"),
    }
    plan_path = workdir / f"{tag}.plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("worker.py")), str(plan_path)],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"{tag}: interpreter process killed after {exc.timeout} s")
    if proc.returncode != 0:
        raise HarnessError(f"{tag}: interpreter process exited {proc.returncode}: "
                           + proc.stderr.strip()[-2000:])
    with open(plan["out"], encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(plan["out"])
    os.remove(plan_path)
    return result


def split_queries(events, texts):
    """Per-query records from a transcript, in the order queries started."""
    records = []
    for t, stream, text in events:
        if stream == "out" and text.startswith("?- "):
            i = len(records)
            if i >= len(texts) or text != "?- " + texts[i]:
                raise HarnessError(f"unexpected echo {text[:80]!r}")
            records.append({"index": i, "echo": t, "first": None, "last": t,
                            "out": [], "err": [], "exc": None})
        elif records:
            rec = records[-1]
            if stream == "out":
                if not text:
                    continue
                rec["out"].append(text)
                if rec["first"] is None and text != "false.":
                    rec["first"] = t
            elif stream == "err":
                rec["err"].append(text)
            else:
                rec["exc"] = text
            rec["last"] = t
    return records


def judge(records, wl):
    """Mark each record failed or not; return the failures."""
    failures = []
    for rec in records:
        reason = None
        if rec["exc"]:
            reason = rec["exc"]
        elif any(line.startswith("error:") for line in rec["err"]):
            reason = next(line for line in rec["err"] if line.startswith("error:"))
        elif rec["out"] != wl.block(wl.queries[rec["index"]].expected):
            reason = "answer block differs from the reference"
        if reason:
            failures.append({"query": rec["index"], "reason": reason[:300]})
    return failures


def phase_seconds(records):
    return records[-1]["last"] - records[0]["echo"]


def tail(values):
    """The TAIL_PCT percentile (nearest rank) and how many samples lie beyond it."""
    ordered = sorted(values)
    k = max(1, math.ceil(TAIL_PCT / 100 * len(ordered)))
    return ordered[k - 1], len(ordered) - k


# -- one run -----------------------------------------------------------------


def prepare(name, seed, trace):
    wl = workloads.make(name, seed)
    workdir = WORK / f"{name}-seed{seed}-trace{trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    for fname, text in wl.files.items():
        (workdir / fname).write_text(text, encoding="utf-8")
    texts = [q.text for q in wl.queries]
    (workdir / "queries.json").write_text(json.dumps(texts), encoding="utf-8")
    head = []
    for arg in wl.argv:
        if arg in wl.files:
            head.append(str(workdir / arg))
        elif arg.startswith("programs/"):
            head.append(str(ROOT / arg))
        else:
            head.append(arg)
    return wl, workdir, head


def end_to_end(wl, workdir, head, seconds):
    texts = [q.text for q in wl.queries]

    def probe(k):
        result = run_child(workdir, f"setup{k}", "setup", head, len(texts))
        if result["setup_s"] is None:
            raise HarnessError("set-up probe printed no query echo: "
                               + repr(result["events"][:5]))
        return result["setup_s"]

    # half of the probes before the query phase and half after it, so that
    # set-up sees the same host conditions as the queries
    setups = [probe(k) for k in range(SETUP_PROBES // 2)]
    main = run_child(workdir, "main", "plain", head, len(texts), deadline_s=seconds)
    setups += [probe(k) for k in range(SETUP_PROBES // 2, SETUP_PROBES)]
    records = split_queries(main["events"], texts)
    if not records:
        raise HarnessError("no query was started: " + repr(main["events"][:5]))
    setups.append(main["setup_s"])
    failures = judge(records, wl)
    times = [r["last"] - r["echo"] for r in records]
    # a query without an answer waits its whole time for a first answer
    firsts = [(r["first"] if r["first"] is not None else r["last"]) - r["echo"]
              for r in records]
    attempted = len(records)
    correct = attempted - len(failures)
    tail_value, beyond = tail(times)
    metrics = {
        "query_s.p50": statistics.median(times),
        "query_s.tail": tail_value,
        "first_answer_s.p50": statistics.median(firsts),
        "queries_per_s": correct / phase_seconds(records),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": main["maxrss_kb"] / 1024,
        "correct_share": correct / attempted,
        "failed_share": len(failures) / attempted,
    }
    extra = {"tail_percentile": TAIL_PCT, "tail_samples_beyond": beyond,
             "samples": attempted,
             "setup_samples": setups, "query_phase_s": phase_seconds(records)}
    return metrics, attempted, failures, extra


def transcript_text(result):
    return [(stream, text) for _, stream, text in result["events"]]


def per_layer(wl, workdir, head):
    """Per-layer metrics of a fixed query prefix, with the end-to-end metric
    each should move and where (flat = no change expected):

    parser.*            setup_s on rulebase; flat elsewhere
    engine.load_s       setup_s on rulebase
    engine.solve_s, engine.self_s, engine.match_calls, engine.match_hit_ratio
                        query_s.p50 and first_answer_s.p50 on rulebase (clause
                        selection, renaming), query_s.p50 on sort (negation
                        sub-solves, nf); flat on rewrite (one clause)
    matching.*          query_s.p50 on sort and proximity; nearly flat on
                        rewrite and rulebase
    terms.bind_calls, terms.hole_count_visits
                        query_s.p50 on sort and proximity
    terms.apply_context_calls, terms.contexts_built, terms.hole_count_visits,
    terms.subst_s       query_s.p50 and first_answer_s.p50 on rewrite; all near
                        zero on rulebase; read term sharing against peak_rss_mb
    terms.check_s       ground and hole checks the engine makes per literal
    proximity.*         query_s.p50 on proximity; zero on the other three
    printer.busy_s, printer.chars
                        query_s.p50 on rewrite; flat elsewhere
    printer.trace_format_*
                        literal rendering for the trace, done even with
                        tracing off: query_s.p50 on sort and proximity
    trace.overhead      traced over untraced query time, the cost of tracing
    """
    n = wl.trace_queries
    texts = [q.text for q in wl.queries[:n]]
    plain = run_child(workdir, "plain", "plain", head, n)
    spans = run_child(workdir, "traced", "spans", head, n)
    counts = [run_child(workdir, f"counts{k}", "counts", head, n) for k in range(2)]
    records = split_queries(plain["events"], texts)
    failures = judge(records, wl)
    problems = []
    for other, tag in ((spans, "spans"), (counts[0], "counts"), (counts[1], "counts again")):
        if transcript_text(other) != transcript_text(plain):
            problems.append(f"{tag} transcript differs from the untraced one")
    if counts[0]["counts"] != counts[1]["counts"]:
        problems.append(f"counts differ between runs: {counts[0]['counts']} "
                        f"vs {counts[1]['counts']}")
    busy = spans["busy"]
    c = counts[0]["counts"]
    solve = busy.get("engine.solve", 0.0)
    match_calls = c.get("engine.match_calls", 0)
    metrics = {
        "parser.busy_s": busy.get("parser", 0.0),
        "parser.calls": c.get("parser.calls", 0),
        "engine.load_s": busy.get("engine.load", 0.0),
        "engine.solve_s": solve,
        "engine.self_s": solve - spans["solve_children"],
        "engine.match_calls": match_calls,
        "engine.match_hit_ratio": c.get("engine.match_hits", 0) / match_calls
        if match_calls else 0.0,
        "matching.busy_s": busy.get("matching", 0.0) + busy.get("matching.scored", 0.0),
        "matching.yielded": c.get("matching.yielded", 0),
        "terms.subst_s": busy.get("terms.subst", 0.0),
        "terms.check_s": busy.get("terms.check", 0.0),
        "terms.bind_calls": c.get("terms.bind_calls", 0),
        "terms.hole_count_visits": c.get("terms.hole_count_visits", 0),
        "terms.apply_context_calls": c.get("terms.apply_context_calls", 0),
        "terms.contexts_built": c.get("terms.contexts_built", 0),
        "proximity.degree_calls": c.get("proximity.degree_calls", 0),
        "proximity.scored_s": busy.get("matching.scored", 0.0),
        "printer.busy_s": busy.get("printer", 0.0),
        "printer.chars": c.get("printer.chars", 0),
        "printer.trace_format_s": busy.get("printer.trace_format", 0.0),
        "printer.trace_format_calls": c.get("printer.trace_format_calls", 0),
        "trace.overhead": phase_seconds(split_queries(spans["events"], texts))
        / phase_seconds(records),
    }
    extra = {"spans": spans["spans"], "wrapped_for_spans": spans["installed"],
             "wrapped_for_counts": counts[0]["installed"], "determinism": problems
             or "identical transcripts and counts"}
    return metrics, len(records), failures, problems, extra


def git_sha():
    """The checkout's commit, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed):
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": platform.python_version(), "nproc": nproc, "git_sha": git_sha(),
            "seed": seed, "loadavg_at_start": list(os.getloadavg())}


def run_one(name, seed, seconds, trace, out_dir):
    env = environment(seed)
    wl, workdir, head = prepare(name, seed, trace)
    declared = spec()["per_layer" if trace else "end_to_end"]
    if trace:
        values, attempted, failures, problems, extra = per_layer(wl, workdir, head)
    else:
        values, attempted, failures, extra = end_to_end(wl, workdir, head, seconds)
        problems = []
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record = dict(result, workload=name, trace=trace, seconds=seconds, sizes=wl.sizes,
                  environment=env, details=extra, failures=failures[:20],
                  all_values=values)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{name}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    if trace:
        os.replace(workdir / "spans.json", out_dir / f"{name}-seed{seed}.spans.json")
    shutil.rmtree(workdir)
    return result, record


def print_table(name, record):
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in spec()[key]}
    units["failed_share"] = "ratio"
    env = record["environment"]
    print(f"== {name}  seed {env['seed']}  python {env['python']}  nproc {env['nproc']}  "
          f"git {env['git_sha'] or 'unknown'}  load {env['loadavg_at_start'][0]:.2f}")
    print(f"   sizes: {json.dumps(record['sizes'])}")
    print(f"   attempted {record['attempted']}  failed {record['failed']}")
    for key, value in record["details"].items():
        if not key.startswith("wrapped"):
            print(f"   {key}: {json.dumps(value)}")
    for key, value in record["all_values"].items():
        print(f"   {key:28} {value:>16.6g} {units.get(key, '')}")
    for failure in record["failures"][:5]:
        print(f"   failed query {failure['query']}: {failure['reason']}")


# -- compare -----------------------------------------------------------------


def load_results(location):
    path = Path(location)
    files = sorted(path.glob("*-trace[01].json")) if path.is_dir() else [path]
    results = {}
    for f in files:
        with open(f, encoding="utf-8") as fh:
            r = json.load(fh)
        if "workload" in r:
            results.setdefault((r["workload"], r["trace"]), []).append(r)
    return results


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(old, new):
    a, b = load_results(old), load_results(new)
    s = spec()
    print(f"{'workload':10} {'metric':28} {'old q1/median/q3':>34} "
          f"{'new q1/median/q3':>34} {'new/old':>8}  verdict")
    for key in sorted(set(a) & set(b)):
        workload, trace = key
        for m in s["per_layer" if trace else "end_to_end"]:
            name = m["name"]
            va = [r["metrics"][name]["value"] for r in a[key] if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in b[key] if name in r["metrics"]]
            if not va or not vb:
                continue
            qa, qb = quartiles(va), quartiles(vb)
            ratio = qb[1] / qa[1] if qa[1] else float("nan")
            verdict = ""
            if "bound" in m:
                spread = max((q[2] - q[0]) / q[1] if q[1] else math.inf for q in (qa, qb))
                worse = ratio - 1 if m["better"] == "lower" else 1 - ratio
                if spread > m["bound"]:
                    verdict = f"unresolved (spread {spread:.3f} > bound {m['bound']})"
                elif worse > m["bound"]:
                    verdict = f"REGRESSED beyond bound {m['bound']}"
                else:
                    verdict = f"within bound {m['bound']}"
            fmt = lambda q: "/".join(f"{x:.4g}" for x in q)  # noqa: E731
            print(f"{workload:10} {name:28} {fmt(qa):>34} {fmt(qb):>34} "
                  f"{ratio:8.3f}  {verdict}  (n={len(va)},{len(vb)})")


# -- entry point ---------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[*workloads.MAKERS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=str(WORK / "results"),
                    help="directory for the per-run result files")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                    help="compare two result sets (directories or files)")
    args = ap.parse_args(argv)
    if args.compare:
        compare(*args.compare)
        return 0
    if not args.workload:
        ap.error("--workload is required")
    try:
        check_checkout()
        names = list(workloads.MAKERS) if args.workload == "all" else [args.workload]
        results = {}
        for name in names:
            results[name], record = run_one(name, args.seed, args.seconds, args.trace,
                                            Path(args.out))
            print_table(name, record)
    except HarnessError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
