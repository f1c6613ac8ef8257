"""The traced run: every workload replayed in-process, with spans.

The replay calls the same public functions of the package that each CLI
call would, in the same order, on the same inputs; argv parsing, file I/O
and output formatting are left out.  Spans live only in this file: one
around each step, one around each public call, and one around each call
that crosses a module boundary inside the package (the names in
``BOUNDARIES``, wrapped while the traced replay runs).  Spans are kept in
memory and written to ``.bench_out`` once, at the end.

A traced run does, in order: one CLI pass of every workload (its outputs
are checked like a --trace 0 pass), an untimed warm-up replay, the replay
with spans off, the replay with spans on plus a few layer probes, and
``python -X importtime``.
It covers every workload whatever ``--workload`` names, so each traced run
reports the same per-layer metrics.
"""

from __future__ import annotations

import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference as ref
import run
import workloads as wl

BANDS = ("short", "mid", "long", "huge-random", "huge-runs")
KERNEL_BANDS = ("mid", "long", "huge-random", "huge-runs")
PROFILE_FNS = ("max_a_profile", "min_a_profile", "max_b_profile")
IMPORTS = ("numpy", "prefixnormal", *(f"prefixnormal.{m}" for m in (
    "words", "profiles", "pnf", "jpm", "lyndon", "census", "geometry",
    "cli")))
CLI_STEPS = {
    "stream": ("pnf", "test", "profiles", "classify"),
    "longtext": ("pnf", "profiles", "index", "region"),
    "census": ("enumerate", "classes", "verify"),
    "census-parallel": ("enumerate", "classes", "verify"),
}
# Cross-module calls inside the package that get a span of their own:
# (module holding the reference, attribute, span name).
BOUNDARIES = (
    ("pnf", "max_a_profile", "profiles.max_a_profile"),
    ("jpm", "max_a_profile", "profiles.max_a_profile"),
    ("jpm", "min_a_profile", "profiles.min_a_profile"),
    ("geometry", "max_a_profile", "profiles.max_a_profile"),
    ("geometry", "min_a_profile", "profiles.min_a_profile"),
    ("geometry", "region", "geometry.region"),
    ("lyndon", "is_prefix_normal", "pnf.is_prefix_normal"),
)
QUERIES_PER_TEXT = 25_000
IMPORT_REPEATS = 5


def _timing(prefix: str, unit: str, samples: bool = True):
    rows = [(f"{prefix}.p50_{unit}", unit, "lower"),
            (f"{prefix}.tail_{unit}", unit, "lower")]
    if samples:
        rows.append((f"{prefix}.samples", "count", "higher"))
    return rows


# Per-layer metrics: (name, unit, better).
PER_LAYER = (
    *[r for b in ("short", "mid") for r in _timing(f"words.parse_word.{b}",
                                                    "us")],
    *[r for fn in PROFILE_FNS for b in KERNEL_BANDS
      for r in _timing(f"profiles.{fn}.{b}", "ms", fn == "max_a_profile")],
    *[r for b in BANDS for r in _timing(f"pnf.pnf_pair.{b}", "ms")],
    ("pnf.pnf_pair.kernel_ratio", "ratio", "lower"),
    ("pnf.pnf_pair.kernel_calls", "count", "lower"),
    *[r for v in ("normal", "not-normal")
      for r in _timing(f"pnf.normality_witness.{v}", "ms")],
    ("pnf.is_prefix_normal.p50_ms", "ms", "lower"),
    *[(f"pnf.PrefixNormalTester.feed.{b}.{s}_ns", "ns", "lower")
      for b in ("mid", "long") for s in "ab"],
    ("jpm.build_index.p50_ms", "ms", "lower"),
    ("jpm.build_index.kernel_ratio", "ratio", "lower"),
    ("jpm.build_index.kernel_calls", "count", "lower"),
    ("jpm.query.ns_per_call", "ns", "lower"),
    ("jpm.query.occur_share", "ratio", "higher"),
    ("jpm.index_to_json.ms", "ms", "lower"),
    ("jpm.index_from_json.ms", "ms", "lower"),
    ("jpm.pnf_from_index.ms", "ms", "lower"),
    *[(f"lyndon.classify.{b}.p50_ms", "ms", "lower")
      for b in ("short", "mid", "long")],
    ("census.count_prefix_normal.nodes", "count", "higher"),
    ("census.count_prefix_normal.nodes_per_s", "1/s", "higher"),
    ("census.count_pre_necklaces.nodes", "count", "higher"),
    ("census.count_pre_necklaces.nodes_per_s", "1/s", "higher"),
    ("census.class_census.words_per_s", "1/s", "higher"),
    ("census.class_members.s", "s", "lower"),
    ("census.verify_tables.s", "s", "lower"),
    ("census.jobs2.count_prefix_normal.nodes_per_s", "1/s", "higher"),
    ("census.jobs2.count_pre_necklaces.nodes_per_s", "1/s", "higher"),
    ("census.jobs2.class_census.words_per_s", "1/s", "higher"),
    ("census.jobs2.verify_tables.s", "s", "lower"),
    ("census.pool.cpu_per_wall", "ratio", "higher"),
    ("geometry.region.ms", "ms", "lower"),
    ("geometry.region_csv.ms", "ms", "lower"),
    ("geometry.render_svg.ms", "ms", "lower"),
    *[(f"cli.import_ms.{m}", "ms", "lower") for m in IMPORTS],
    *[(f"cli.overhead_s.{w}.{s}", "s", "lower")
      for w, steps in CLI_STEPS.items() for s in steps],
    ("trace.overhead_ratio", "ratio", "lower"),
)


# ---------------------------------------------------------------------------
# Spans

class _Span:
    __slots__ = ("tracer", "name", "tag", "index")

    def __init__(self, tracer, name, tag):
        self.tracer, self.name, self.tag = tracer, name, tag

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        parent = tr.open[-1] if tr.open else -1
        tr.spans.append([self.name, time.perf_counter_ns(), 0, parent,
                         self.tag])
        tr.open.append(self.index)
        return self

    def __exit__(self, *exc):
        record = self.tracer.spans[self.index]
        record[2] = time.perf_counter_ns()
        record[4] = self.tag
        self.tracer.open.pop()


class Tracer:
    """Spans of one run: [name, start_ns, end_ns, parent index, tag]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.open: list[int] = []

    def span(self, name: str, tag: str | None = None) -> _Span:
        return _Span(self, name, tag)

    def select(self, name: str, tag: str | None = None,
               parent_prefix: str | None = None) -> list[float]:
        """Durations in seconds of the matching spans."""
        out = []
        for s in self.spans:
            if s[0] != name or (tag is not None and s[4] != tag):
                continue
            if parent_prefix is not None and (
                    s[3] < 0
                    or not self.spans[s[3]][0].startswith(parent_prefix)):
                continue
            out.append((s[2] - s[1]) / 1e9)
        return out

    def self_times(self) -> dict[str, dict]:
        """Per span name: count, total and self time (total minus the time
        covered by child spans), in ms."""
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        table: dict[str, dict] = {}
        for i, s in enumerate(self.spans):
            row = table.setdefault(s[0], {"count": 0, "total_ms": 0.0,
                                          "self_ms": 0.0})
            row["count"] += 1
            row["total_ms"] += (s[2] - s[1]) / 1e6
            row["self_ms"] += (s[2] - s[1] - child[i]) / 1e6
        return table

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "run_id": self.run_id,
            "fields": ["name", "start_ns", "end_ns", "parent", "tag"],
            "spans": self.spans}))


class _Off:
    """Stands in for a span when tracing is off."""

    tag = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        pass


class NullTracer:
    _off = _Off()

    def span(self, name, tag=None):
        return self._off


class boundaries:
    """Wraps the BOUNDARIES calls in spans for the duration of a with."""

    def __init__(self, pkg: dict, tracer: Tracer):
        self.pkg, self.tracer, self.saved = pkg, tracer, []

    def __enter__(self):
        for module, attr, name in BOUNDARIES:
            mod = self.pkg[module]
            if hasattr(mod, attr):
                self.saved.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, _wrap(getattr(mod, attr), name,
                                         self.tracer))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self.saved):
            setattr(mod, attr, fn)


def _wrap(fn, name, tracer):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


# ---------------------------------------------------------------------------
# Replay

def load_package() -> dict:
    if str(run.SRC) not in sys.path:
        sys.path.insert(0, str(run.SRC))
    from prefixnormal import (census, geometry, jpm, lyndon, pnf, profiles,
                              words)
    return {"census": census, "geometry": geometry, "jpm": jpm,
            "lyndon": lyndon, "pnf": pnf, "profiles": profiles,
            "words": words}


def replay_call(call: wl.Call, pkg: dict, tr, docs: dict) -> None:
    """What the CLI does for ``call``, minus argv, I/O and formatting."""
    parse = pkg["words"].parse_word
    pnf, prof, jpm = pkg["pnf"], pkg["profiles"], pkg["jpm"]
    census, geo = pkg["census"], pkg["geometry"]
    kind, a = call.kind, call.args
    if call.words:
        for line, band in zip(call.words, call.bands):
            with tr.span("words.parse_word", band):
                w = parse(line)
            if kind == "pnf":
                with tr.span("pnf.pnf_pair", band):
                    pnf.pnf_pair(w)
            elif kind == "test":
                with tr.span("pnf.normality_witness") as s:
                    found = pnf.normality_witness(w)
                    s.tag = "normal" if found is None else "not-normal"
            elif kind == "profiles":
                for fn in PROFILE_FNS:
                    with tr.span(f"profiles.{fn}", band):
                        getattr(prof, fn)(w)
            elif kind == "classify":
                with tr.span("lyndon.classify", band):
                    pkg["lyndon"].classify(w)
        return
    jobs = f"jobs{a.get('jobs', 1)}"
    if kind == "index-build":
        w = parse(a["word"])
        with tr.span("jpm.build_index"):
            ix = jpm.build_index(w)
        with tr.span("jpm.index_to_json"):
            docs[a["file"]] = jpm.index_to_json(ix)
    elif kind in ("index-pnf", "index-query"):
        with tr.span("jpm.index_from_json"):
            ix = jpm.index_from_json(docs[a["file"]])
        if kind == "index-pnf":
            with tr.span("jpm.pnf_from_index"):
                jpm.pnf_from_index(ix)
        else:
            with tr.span("jpm.query"):
                jpm.query(ix, (a["x"], a["y"]))
    elif kind == "region":
        w = parse(a["word"])
        with tr.span("geometry.render_svg"):
            geo.render_svg(w, unit=16, suffix_paths=False)
        with tr.span("geometry.region_csv"):
            geo.region_csv(w)
    elif kind == "enumerate":
        with tr.span("census.counts_table", jobs):
            census.counts_table(a["max_n"], what="both", jobs=a["jobs"])
    elif kind == "classes":
        with tr.span("census.class_census", jobs):
            census.class_census(a["n"], jobs=a["jobs"]).histogram()
    elif kind == "members":
        rep = parse(a["rep"])
        with tr.span("census.class_members"):
            census.class_members(rep)
    elif kind == "verify":
        with tr.span("census.verify_tables", jobs):
            census.verify_tables(jobs=a["jobs"])
    else:
        raise ValueError(f"no replay for {kind!r}")


def replay(plans: dict, pkg: dict, tr) -> dict[str, float]:
    """Replay every step of every plan; wall seconds per workload.step."""
    times = {}
    for name, plan in plans.items():
        for step in plan.steps:
            docs: dict[str, str] = {}
            step_name = step.metric.removesuffix("_s")
            t0 = time.perf_counter()
            with tr.span(f"step.{name}.{step_name}"):
                for call in step.calls:
                    replay_call(call, pkg, tr, docs)
            times[f"{name}.{step_name}"] = time.perf_counter() - t0
    return times


# ---------------------------------------------------------------------------
# Probes: layers no CLI step isolates

def probe_walks(pkg: dict, tr: Tracer) -> None:
    census = pkg["census"]
    for jobs in (1, 2):
        with tr.span("census.count_prefix_normal", f"jobs{jobs}"):
            census.count_prefix_normal(22, jobs=jobs)
        with tr.span("census.count_pre_necklaces", f"jobs{jobs}"):
            census.count_pre_necklaces(22, jobs=jobs)


def probe_tester(pkg: dict, tr: Tracer, stream: wl.Plan) -> dict:
    """Nanoseconds per feed, by band and symbol, over the stream words."""
    tester = pkg["pnf"].PrefixNormalTester
    feeds: dict[tuple[str, str], list[int]] = {}
    call = stream.steps[0].calls[0]
    clock = time.perf_counter_ns
    for w, band in zip(call.words, call.bands):
        if band not in ("mid", "long"):
            continue
        t = tester()
        with tr.span("pnf.PrefixNormalTester.feed", band):
            for ch in w:
                t0 = clock()
                t.feed(ch)
                feeds.setdefault((band, ch), []).append(clock() - t0)
    return {f"pnf.PrefixNormalTester.feed.{b}.{s}_ns":
            statistics.median(feeds[b, s])
            for b in ("mid", "long") for s in "ab"}


def probe_queries(pkg: dict, tr: Tracer, longtext: wl.Plan,
                  seed: int) -> dict:
    """Bulk O(1) queries against each longtext index."""
    jpm = pkg["jpm"]
    rng = random.Random(f"queries/{seed}")
    calls, hits, spent = 0, 0, 0.0
    for w in longtext.steps[0].calls[0].words:
        ix = jpm.build_index(w)
        n = len(w)
        qs = []
        for _ in range(QUERIES_PER_TEXT):
            k = rng.randint(1, n)
            x = rng.randint(0, k)
            qs.append((x, k - x))
        query = jpm.query
        t0 = time.perf_counter()
        with tr.span("jpm.query.bulk"):
            hits += sum(query(ix, q) for q in qs)
        spent += time.perf_counter() - t0
        calls += len(qs)
    return {"jpm.query.ns_per_call": spent / calls * 1e9,
            "jpm.query.occur_share": hits / calls}


def import_times() -> dict:
    """Median cumulative import time per module, from -X importtime."""
    seen: dict[str, list[float]] = {m: [] for m in IMPORTS}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             "import prefixnormal.cli"],
            capture_output=True, text=True, env=run.cli_env(), timeout=60)
        if proc.returncode != 0:
            raise SystemExit(f"importing prefixnormal failed: "
                             f"{proc.stderr[-400:]}")
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            _, cumulative, module = line.split("|")
            module = module.strip()
            if module in seen and cumulative.strip().isdigit():
                seen[module].append(int(cumulative) / 1e3)
    return {f"cli.import_ms.{m}": statistics.median(v) if v else 0.0
            for m, v in seen.items()}


# ---------------------------------------------------------------------------
# Metrics

def tail(values: list[float]) -> float:
    """The highest of p50/p90/p99/p99.9 with at least 10 samples above it;
    with fewer than 20 samples, the largest sample."""
    s = sorted(values)
    n = len(s)
    for q in (0.999, 0.99, 0.9, 0.5):
        rank = math.ceil(q * n) - 1   # nearest rank, from 0
        if n - rank - 1 >= 10:
            return s[rank]
    return s[-1]


def _cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        u = resource.getrusage(who)
        total += u.ru_utime + u.ru_stime
    return total


def layer_metrics(tr: Tracer) -> dict:
    m: dict[str, float] = {}

    def timing(prefix, values, scale, unit, samples=True):
        m[f"{prefix}.p50_{unit}"] = statistics.median(values) * scale
        m[f"{prefix}.tail_{unit}"] = tail(values) * scale
        if samples:
            m[f"{prefix}.samples"] = len(values)

    for b in ("short", "mid"):
        timing(f"words.parse_word.{b}", tr.select("words.parse_word", b),
               1e6, "us")
    top = "step."   # calls made by a step, not nested in another call
    for fn in PROFILE_FNS:
        for b in KERNEL_BANDS:
            timing(f"profiles.{fn}.{b}",
                   tr.select(f"profiles.{fn}", b, top), 1e3, "ms",
                   fn == "max_a_profile")
    for b in BANDS:
        timing(f"pnf.pnf_pair.{b}", tr.select("pnf.pnf_pair", b), 1e3, "ms")
    max_a_total = sum(tr.select("profiles.max_a_profile", None, top))
    m["pnf.pnf_pair.kernel_ratio"] = (sum(tr.select("pnf.pnf_pair"))
                                      / max_a_total)
    m["pnf.pnf_pair.kernel_calls"] = _children_per_call(
        tr, "pnf.pnf_pair", "profiles.")
    for v in ("normal", "not-normal"):
        timing(f"pnf.normality_witness.{v}",
               tr.select("pnf.normality_witness", v), 1e3, "ms")
    m["pnf.is_prefix_normal.p50_ms"] = _nested_p50(
        tr.select("pnf.is_prefix_normal")) * 1e3
    build = tr.select("jpm.build_index")
    m["jpm.build_index.p50_ms"] = statistics.median(build) * 1e3
    # The longtext texts are the words `index build` runs on; their
    # max_a_profile spans come from the longtext profiles step.
    m["jpm.build_index.kernel_ratio"] = sum(build) / sum(
        tr.select("profiles.max_a_profile", None, "step.longtext.profiles"))
    m["jpm.build_index.kernel_calls"] = _children_per_call(
        tr, "jpm.build_index", "profiles.")
    for fn in ("index_to_json", "index_from_json", "pnf_from_index"):
        m[f"jpm.{fn}.ms"] = statistics.median(tr.select(f"jpm.{fn}")) * 1e3
    for b in ("short", "mid", "long"):
        m[f"lyndon.classify.{b}.p50_ms"] = statistics.median(
            tr.select("lyndon.classify", b)) * 1e3
    for fn, counts in (("count_prefix_normal", ref.PREFIX_NORMAL_COUNTS),
                       ("count_pre_necklaces", ref.PRE_NECKLACE_COUNTS)):
        nodes = sum(counts[:22])
        m[f"census.{fn}.nodes"] = nodes
        for jobs, prefix in ((1, "census"), (2, "census.jobs2")):
            (t,) = tr.select(f"census.{fn}", f"jobs{jobs}")
            m[f"{prefix}.{fn}.nodes_per_s"] = nodes / t
    for jobs, prefix in ((1, "census"), (2, "census.jobs2")):
        (t,) = tr.select("census.class_census", f"jobs{jobs}")
        m[f"{prefix}.class_census.words_per_s"] = (1 << 20) / t
        (t,) = tr.select("census.verify_tables", f"jobs{jobs}")
        m[f"{prefix}.verify_tables.s"] = t
    m["census.class_members.s"] = statistics.median(
        tr.select("census.class_members"))
    for fn in ("region_csv", "render_svg"):
        m[f"geometry.{fn}.ms"] = statistics.median(
            tr.select(f"geometry.{fn}")) * 1e3
    m["geometry.region.ms"] = _nested_p50(tr.select("geometry.region")) * 1e3
    return m


def _nested_p50(values: list[float]) -> float:
    """Median of spans that only the BOUNDARIES wrappers record; 0 when
    the package no longer makes that call across that boundary."""
    return statistics.median(values) if values else 0.0


def _children_per_call(tr: Tracer, parent: str, child_prefix: str) -> float:
    """Mean number of direct child spans named child_prefix* per parent."""
    parents = {i for i, s in enumerate(tr.spans) if s[0] == parent}
    children = sum(1 for s in tr.spans
                   if s[3] in parents and s[0].startswith(child_prefix))
    return children / len(parents)


def measure(workload: wl.Workload, seed: int, seconds: float) -> dict:
    """The --trace 1 run: per-layer metrics over every workload.

    It makes one pass of each kind whatever ``seconds`` says; that takes
    about a minute.
    """
    t_start = time.perf_counter()
    loops_before = run.env_loops()
    plans = {name: w.build(seed) for name, w in wl.WORKLOADS.items()}
    pkg = load_package()
    with run.scratch_dir("trace") as workdir, run.Launcher() as launch:
        passes = {name: run.run_pass(launch, plan, workdir)
                  for name, plan in plans.items()}
    attempted = sum(c["attempted"] for p in passes.values() for c in p)
    failed = sum(c["failed"] for p in passes.values() for c in p)
    cli = {}
    for name, plan in plans.items():
        walls = run.summarize([passes[name]])
        for step in plan.steps:
            cli[f"{name}.{step.metric.removesuffix('_s')}"] = \
                walls[step.metric]
    # The first in-process pass over the per-word workloads runs about a
    # third slower than later ones, so one untimed pass goes first.
    replay({k: plans[k] for k in ("stream", "longtext")}, pkg, NullTracer())
    plain = replay(plans, pkg, NullTracer())
    tr = Tracer(f"{workload.name}-{seed}-{int(time.time())}")
    serial = {k: v for k, v in plans.items() if k != "census-parallel"}
    with boundaries(pkg, tr):
        traced = replay(serial, pkg, tr)
        cpu0, wall0 = _cpu(), time.perf_counter()
        traced.update(replay({"census-parallel": plans["census-parallel"]},
                             pkg, tr))
        pool = (_cpu() - cpu0) / (time.perf_counter() - wall0)
        probe_walks(pkg, tr)
        tester = probe_tester(pkg, tr, plans["stream"])
        queries = probe_queries(pkg, tr, plans["longtext"], seed)
    metrics = {**layer_metrics(tr), **tester, **queries, **import_times(),
               "census.pool.cpu_per_wall": pool,
               "trace.overhead_ratio": (sum(traced.values())
                                        / sum(plain.values()))}
    for key, wall in cli.items():
        metrics[f"cli.overhead_s.{key}"] = wall - plain[key]
    declared = [n for n, _, _ in PER_LAYER]
    if sorted(metrics) != sorted(declared):
        missing = set(declared) ^ set(metrics)
        raise RuntimeError(f"per-layer metrics out of step: {missing}")
    selftimes = tr.self_times()
    tr.write(run.ROOT / ".bench_out" / f"spans-{tr.run_id}.json")
    print(f"traced run over {', '.join(plans)}: seed {seed}, "
          f"{len(tr.spans)} spans, {failed}/{attempted} checks failed, "
          f"{time.perf_counter() - t_start:.1f} s")
    print(f"  {'span':<32} {'count':>7} {'total_ms':>11} {'self_ms':>11}")
    for name, row in sorted(selftimes.items(),
                            key=lambda kv: -kv[1]["self_ms"]):
        print(f"  {name:<32} {row['count']:>7} {row['total_ms']:>11.1f} "
              f"{row['self_ms']:>11.1f}")
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "trace": 1, "correct": failed == 0, "attempted": attempted,
        "failed": failed, "metrics": {n: metrics[n] for n in declared},
        "self_times": selftimes,
        "shares": {k: p.shares for k, p in plans.items()},
        "env": {**run.environment(), "loops_before": loops_before,
                "loops_after": run.env_loops()},
    }
