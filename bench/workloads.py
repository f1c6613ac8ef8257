"""The benchmark's workloads: seeded inputs, CLI calls and output checks.

Each workload is a list of steps; a step is one or more CLI calls whose
wall times add up to the step's time.  A call carries its argv, the stdin
it is fed in full, the exit code it must return, and a check that turns
its output into one pass/fail per checked item.  The same seed always
gives the same calls.  Expected answers come from ``reference``, never
from the package under test.
"""

from __future__ import annotations

import hashlib
import json
import random
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import reference as ref

# Word-length bands.  `short` stays on the package's pure-Python path
# (n < 64), `mid` and `long` on its numpy path.
SHORT, MID, LONG = (8, 63), (256, 1024), 2000
STREAM_COUNTS = {"short": 360, "mid": 72, "long": 6}
# Lengths of the longtext texts: `region` is bounded at 10^4 symbols.
HUGE_LENGTHS = (10_000, 16_000)
RUN_LENGTHS = (10, 300)
# A word has few runs when its mean run length is at least this.
FEW_RUNS_MEAN = 8
MEMBERS_N = 18


@dataclass
class Call:
    """One CLI invocation and how to judge what it printed."""

    kind: str
    argv: list[str]
    check: Callable[[str, Path], list[bool]]
    items: int
    exit_code: int = 0
    stdin: str | None = None
    words: list[str] = field(default_factory=list)
    bands: list[str] = field(default_factory=list)
    args: dict = field(default_factory=dict)

    def judge(self, code: int, stdout: str, workdir: Path) -> list[bool]:
        """Pass/fail per item; a wrong exit code fails every item."""
        if code != self.exit_code:
            return [False] * self.items
        verdicts = self.check(stdout, workdir)
        if len(verdicts) != self.items:
            raise RuntimeError(f"{self.kind}: check gave {len(verdicts)} "
                               f"verdicts for {self.items} items")
        return verdicts


@dataclass
class Step:
    metric: str
    calls: list[Call]
    batch: bool = False   # counts toward words_per_s


@dataclass
class Plan:
    workload: str
    steps: list[Step]
    shares: dict


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup_argv: tuple[str, ...]
    build: Callable[[int], Plan]


# ---------------------------------------------------------------------------
# Inputs

def random_word(rng: random.Random, n: int) -> str:
    return "".join(rng.choices("ab", k=n))


def runs_word(rng: random.Random, n: int) -> str:
    """Alternating runs of a's and b's with seeded lengths."""
    sym = rng.choice("ab")
    parts, total = [], 0
    while total < n:
        size = min(rng.randint(*RUN_LENGTHS), n - total)
        parts.append(sym * size)
        total += size
        sym = "b" if sym == "a" else "a"
    return "".join(parts)


def stratified_lengths(rng: random.Random, lo: int, hi: int,
                       count: int) -> list[int]:
    """One length from each of ``count`` equal slices of [lo, hi], so the
    total work varies little from seed to seed."""
    span = hi - lo + 1
    return [lo + int(span * (i + rng.random()) / count)
            for i in range(count)]


def band_of(n: int) -> str:
    if n <= SHORT[1]:
        return "short"
    return "mid" if n <= MID[1] else "long"


def measured_shares(words: list[str], bands: list[str],
                    facts: dict[str, ref.WordFacts]) -> dict:
    """Share of the input words with each property the code may key on."""
    total = len(words)
    band_names = sorted(set(bands))
    return {
        "words": total,
        "bands": {b: round(bands.count(b) / total, 4) for b in band_names},
        "prefix_normal": round(
            sum(facts[w].is_prefix_normal for w in words) / total, 4),
        "few_runs": round(
            sum(ref.runs(w) * FEW_RUNS_MEAN <= len(w) for w in words)
            / total, 4),
    }


# ---------------------------------------------------------------------------
# Checks of per-word output

def _block_check(expected: list[list[str]], norm=lambda line: line):
    """Check stdout block by block: item i owns the next len(expected[i])
    lines.  Extra trailing output fails the last item."""
    def check(stdout: str, _workdir: Path) -> list[bool]:
        lines = stdout.splitlines()
        verdicts, pos = [], 0
        for block in expected:
            got = lines[pos:pos + len(block)]
            pos += len(block)
            try:
                verdicts.append([norm(x) for x in got]
                                == [norm(x) for x in block])
            except ValueError:
                verdicts.append(False)
        if pos < len(lines) and verdicts:
            verdicts[-1] = False
        return verdicts
    return check


def _expected_lines(kind: str, f: ref.WordFacts) -> list[str]:
    if kind == "pnf":
        return [f"PNF_a: {f.pnf_a}", f"PNF_b: {f.pnf_b}"]
    if kind == "test":
        witness = f.witness()
        return ["normal"] if witness is None else [
            "not-normal", f"witness: {witness}"]
    if kind == "profiles":
        return [" ".join(["k", *map(str, range(len(f.word) + 1))]),
                " ".join(["F_a", *map(str, f.max_a.tolist())]),
                " ".join(["F_b", *map(str, f.max_b.tolist())])]
    if kind == "classify":
        bits = ref.lyndon_bits(f.word)
        bits["is_prefix_normal"] = f.is_prefix_normal
        return [json.dumps(bits, sort_keys=True)]
    raise ValueError(kind)


def _normalizer(kind: str):
    if kind == "profiles":
        return str.split
    if kind == "classify":
        return lambda line: json.dumps(json.loads(line), sort_keys=True)
    return lambda line: line


def batch_call(kind: str, words: list[str], bands: list[str],
               facts: dict[str, ref.WordFacts]) -> Call:
    """`<kind> -` over all words on stdin."""
    expected = [_expected_lines(kind, facts[w]) for w in words]
    exit_code = 0
    if kind == "test" and any(not facts[w].is_prefix_normal for w in words):
        exit_code = 1
    return Call(kind, [kind, "-"], _block_check(expected, _normalizer(kind)),
                len(words), exit_code, "\n".join(words) + "\n",
                words=words, bands=bands)


# ---------------------------------------------------------------------------
# stream

def build_stream(seed: int) -> Plan:
    rng = random.Random(f"stream/{seed}")
    words = []
    for band, count in STREAM_COUNTS.items():
        if band == "long":
            lengths = [LONG] * count
        else:
            lo, hi = SHORT if band == "short" else MID
            lengths = stratified_lengths(rng, lo, hi, count)
        for i, n in enumerate(lengths):
            w = random_word(rng, n)
            # A third of each band is prefix normal: the a-side normal
            # form of a random word, which forces full scans.
            words.append(ref.WordFacts(w).pnf_a if i % 3 == 0 else w)
    rng.shuffle(words)
    facts = {w: ref.WordFacts(w) for w in words}
    bands = [band_of(len(w)) for w in words]
    steps = [Step(f"{kind}_s", [batch_call(kind, words, bands, facts)],
                  batch=True)
             for kind in ("pnf", "test", "profiles", "classify")]
    return Plan("stream", steps, measured_shares(words, bands, facts))


# ---------------------------------------------------------------------------
# longtext

def _index_build_call(i: int, f: ref.WordFacts) -> Call:
    name = f"ix{i}.json"

    def check(stdout: str, workdir: Path) -> list[bool]:
        try:
            doc = json.loads((workdir / name).read_text())
        except (OSError, ValueError):
            return [False]
        return [stdout == "" and doc == {
            "version": 1, "n": len(f.word), "maxA": f.max_a.tolist(),
            "minA": f.min_a.tolist()}]
    return Call("index-build", ["index", "build", f.word, "-o", name], check,
                1, args={"word": f.word, "file": name})


def _index_pnf_call(i: int, f: ref.WordFacts) -> Call:
    name = f"ix{i}.json"
    return Call("index-pnf", ["index", "pnf", name],
                _block_check([[f"PNF_a: {f.pnf_a}", f"PNF_b: {f.pnf_b}"]]),
                1, args={"file": name})


def _index_query_call(i: int, f: ref.WordFacts, rng: random.Random) -> Call:
    """A query that occurs for even i and is absent for odd i."""
    name = f"ix{i}.json"
    n = len(f.word)
    while True:
        k = rng.randint(1, n)
        lo, hi = int(f.min_a[k]), int(f.max_a[k])
        x = rng.randint(lo, hi) if i % 2 == 0 else hi + 1
        if x <= k:
            break
    occurs = f.occurs(x, k - x)
    verdict = "occurs" if occurs else "absent"
    return Call("index-query", ["index", "query", name, str(x), str(k - x)],
                _block_check([[verdict]]), 1, 0 if occurs else 1,
                args={"file": name, "x": x, "y": k - x})


def _region_call(i: int, f: ref.WordFacts) -> Call:
    svg, csv = f"region{i}.svg", f"region{i}.csv"
    n = len(f.word)
    upper = [2 * int(v) - k for k, v in enumerate(f.max_a)]
    lower = [2 * int(v) - k for k, v in enumerate(f.min_a)]
    csv_text = "k,upper_y,lower_y,F_a,f_a\n" + "".join(
        f"{k},{upper[k]},{lower[k]},{f.max_a[k]},{f.min_a[k]}\n"
        for k in range(n + 1))
    # The region polygon in pixels: one unit margin, 16 px per step,
    # y flipped so that more a's is higher.
    unit, y_hi = 16, max(upper)
    pts = [((1 + k) * unit, (1 + y_hi - y) * unit)
           for k, y in list(enumerate(upper)) + list(enumerate(lower))[::-1]]
    polygon = " ".join(f"{x},{y}" for x, y in pts)

    def check(stdout: str, workdir: Path) -> list[bool]:
        try:
            root = ET.parse(workdir / svg).getroot()
            shape = root.find("{http://www.w3.org/2000/svg}polygon")
            svg_ok = shape is not None and shape.get("points") == polygon
        except (OSError, ET.ParseError):
            svg_ok = False
        try:
            csv_ok = (workdir / csv).read_text() == csv_text
        except OSError:
            csv_ok = False
        return [svg_ok and stdout == "", csv_ok]
    return Call("region", ["region", f.word, "-o", svg, "--csv", csv], check,
                2, args={"word": f.word, "svg": svg, "csv": csv})


def build_longtext(seed: int) -> Plan:
    rng = random.Random(f"longtext/{seed}")
    words, bands = [], []
    for n in HUGE_LENGTHS:
        words += [random_word(rng, n), runs_word(rng, n)]
        bands += ["huge-random", "huge-runs"]
    facts = {w: ref.WordFacts(w) for w in words}
    fs = [facts[w] for w in words]
    steps = [
        Step("pnf_s", [batch_call("pnf", words, bands, facts)], batch=True),
        Step("profiles_s", [batch_call("profiles", words, bands, facts)],
             batch=True),
        Step("index_s",
             [_index_build_call(i, f) for i, f in enumerate(fs)]
             + [_index_pnf_call(i, f) for i, f in enumerate(fs)]
             + [_index_query_call(i, f, rng) for i, f in enumerate(fs)]),
        Step("region_s", [_region_call(i, f) for i, f in enumerate(fs)
                          if len(f.word) <= HUGE_LENGTHS[0]]),
    ]
    return Plan("longtext", steps, measured_shares(words, bands, facts))


# ---------------------------------------------------------------------------
# census and census-parallel

def _enumerate_check(stdout: str, _workdir: Path) -> list[bool]:
    rows = [line.split() for line in stdout.splitlines()]
    expected = [["n", *map(str, range(1, 23))],
                ["prefix-normal", *map(str, ref.PREFIX_NORMAL_COUNTS)],
                ["pre-necklace", *map(str, ref.PRE_NECKLACE_COUNTS)]]
    verdicts = []
    for r in (1, 2):
        got = rows[r] if len(rows) == 3 and rows[0] == expected[0] else []
        for i in range(1, 23):
            verdicts.append(len(got) == 23 and got[0] == expected[r][0]
                            and got[i] == expected[r][i])
    return verdicts


def _classes_check(stdout: str, _workdir: Path) -> list[bool]:
    digest_ok = (hashlib.sha256(stdout.encode()).hexdigest()
                 == ref.CLASSES_N20_SHA256)
    lines = stdout.splitlines()
    try:
        cut = lines.index("size classes")
        classes = [line.split() for line in lines[:cut]]
        sizes = [int(size) for _, size in classes]
        hist = dict(tuple(map(int, line.split())) for line in lines[cut + 1:])
    except ValueError:
        return [digest_ok, False, False, False]
    reps = [rep for rep, _ in classes]
    from_sizes = {}
    for s in sizes:
        from_sizes[s] = from_sizes.get(s, 0) + 1
    return [
        digest_ok,
        hist == ref.CLASS_HISTOGRAM_N20 == from_sizes,
        len(reps) == ref.PREFIX_NORMAL_COUNTS[19] and sum(sizes) == 1 << 20
        and reps == sorted(set(reps)),
        all(len(r) == 20 for r in reps) and ref.all_prefix_normal(reps),
    ]


def _verify_check(stdout: str, _workdir: Path) -> list[bool]:
    lines = stdout.splitlines()
    cells = lines[:-1] if lines else []
    verdicts = [i < len(cells) and cells[i].startswith("ok   ")
                for i in range(ref.VERIFY_CELLS)]
    total = f"{ref.VERIFY_CELLS}/{ref.VERIFY_CELLS} cells match"
    verdicts.append(len(cells) == ref.VERIFY_CELLS and lines[-1] == total)
    return verdicts


def build_census(seed: int, jobs: int = 1) -> Plan:
    rng = random.Random(f"census/{seed}")
    rep = ref.WordFacts(random_word(rng, MEMBERS_N)).pnf_a
    members = ref.class_members(rep)
    extra = ["--jobs", str(jobs)] if jobs > 1 else []
    steps = [
        Step("enumerate_s", [Call("enumerate", ["enumerate", "--max-n", "22",
                                                *extra],
                                  _enumerate_check, 44,
                                  args={"max_n": 22, "jobs": jobs})]),
        Step("classes_s", [
            Call("classes", ["classes", "--n", "20", "--histogram", *extra],
                 _classes_check, 4, args={"n": 20, "jobs": jobs}),
            Call("members", ["classes", "--members", rep, *extra],
                 _block_check([[m] for m in members] + [[]]),
                 len(members) + 1, args={"rep": rep}),
        ]),
        Step("verify_s", [Call("verify", ["verify-tables", *extra],
                               _verify_check, ref.VERIFY_CELLS + 1,
                               args={"jobs": jobs})]),
    ]
    shares = {"members_rep": rep, "class_size": len(members)}
    return Plan("census" if jobs == 1 else "census-parallel", steps, shares)


WORKLOADS = {w.name: w for w in (
    Workload(
        "stream",
        "Per-word path: 438 words (360 n<64, 72 n=256-1024, 6 n=2000, a "
        "third prefix normal) through pnf/test/profiles/classify on stdin. "
        "Valid input only.",
        ("pnf", "ab"), build_stream),
    Workload(
        "longtext",
        "Kernel at n=10^4 and 1.6*10^4, half random and half few long runs: "
        "pnf, profiles, index build/pnf/query, region. Input-boundary "
        "defects stay with Tier-1.",
        ("pnf", "ab"), build_longtext),
    Workload(
        "census",
        "Serial tree walks and batch census: enumerate --max-n 22, classes "
        "--n 20, classes --members, verify-tables. Control for every "
        "per-word kernel change.",
        ("enumerate", "--max-n", "1"), build_census),
    Workload(
        "census-parallel",
        "The census commands with --jobs 2: measures process-pool fan-out, "
        "chunking, result merge and worker start-up; serial census is its "
        "control.",
        ("enumerate", "--max-n", "1", "--jobs", "2"),
        lambda seed: build_census(seed, jobs=2)),
)}
