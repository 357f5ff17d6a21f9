#!/usr/bin/env python3
"""Render the paper-figure tables of README.md and EXPERIMENTS.md from
sealfig rows, and check them.

Each table sits between markers in the docs:

    <!-- sealfig:fig12 -->
    ...rendered Markdown...
    <!-- /sealfig -->

and is rendered from the committed 48 MB rows (figures/rows-48mb.jsonl).
The committed --mb=4 rows (figures/rows-4mb.jsonl) are what check.sh
compares a fresh `sealfig all --mb=4` run against. Each row file starts
with a line naming the git commit its rows were produced from.

Usage:
  scripts/figures.py [ROWS.jsonl ...]
      Install each rows file (sealfig's stdout) over the committed file
      with the same parameters, then re-render the doc tables.
  scripts/figures.py --check [ROWS.jsonl ...]
      Fail when a doc table differs from what the committed rows render,
      or when a given rows file differs from the committed file with the
      same parameters at the precision the tables render. Rows marked
      "repeatable": false must be present but are not compared.
  scripts/figures.py --selftest
      Show on fixture rows that an edited table, a missing row and a
      changed value each fail the check.

Exit status: 0 = ok, 1 = check failed, 2 = usage/IO error.
"""

import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = ["README.md", "EXPERIMENTS.md"]
# The committed row files and the sealfig parameters of each.
COMMITTED = {
    "figures/rows-48mb.jsonl": {"mb": 48, "scale": 16, "read_ops": 20000},
    "figures/rows-4mb.jsonl": {"mb": 4, "scale": 16, "read_ops": 20000},
}
DOC_ROWS = "figures/rows-48mb.jsonl"
PARAMS = ("mb", "scale", "read_ops")
BLOCK = re.compile(r"<!-- sealfig:(\w+) -->\n(.*?)<!-- /sealfig -->", re.S)

# Decimals each metric renders at (and is compared at); `name[x]` series
# points use their name's entry.
PRECISION = {
    # Table II
    "seq_read_mb_s": 0, "seq_write_mb_s": 0,
    "rand_read_iops": 0, "rand_write_iops": 0,
    # layout (Figs. 2, 10, 11, 13)
    "outputs": 0, "compactions": 0, "min_pba_mb": 1, "max_pba_mb": 1,
    "span_mb": 1, "user_data_mb": 1, "avg_outputs": 3, "avg_span_mb": 3,
    "space_touched_mb": 1, "data_per_space_touched": 3,
    "latency_ms": 2, "data_mb": 2, "total_latency_s": 3,
    "avg_latency_ms": 3, "avg_data_mb": 3,
    "set_pba_mb": 1, "set_mb": 2, "contiguous": 0, "contiguous_pct": 3,
    "occupied_mb": 1, "occupied_per_user_byte": 3, "dynamic_bands": 0,
    "avg_set_mb": 3, "allocated_mb": 1, "guard_mb": 1, "fragment_mb": 1,
    "large_free_mb": 1, "fragment_pct": 3,
    "offset_mb": 1, "length_mb": 2, "gap_mb": 2,
    # amplification (Figs. 3, 12)
    "ssts_per_compaction": 2, "bands_per_compaction": 2,
    "wa": 2, "awa": 2, "mwa": 2, "logical_mb": 1, "physical_mb": 1,
    "busy_s": 2, "seeks": 0, "rmws": 0,
    # throughput (Figs. 8, 9, 14)
    "fill_random": 0, "fill_seq": 0, "read_seq": 0, "read_random": 0,
    "read_random_compaction_s": 3, "read_random_found_share": 3,
    "Load": 0, "A": 0, "B": 0, "C": 0, "D": 0, "E": 0, "F": 0,
}


class CheckError(Exception):
    pass


def precision(metric):
    return PRECISION[metric.split("[")[0]]


def key(row):
    return (row["figure"], row["system"], row["metric"])


def parse_rows(lines, where):
    """Rows keyed by (figure, system, metric), plus their one parameter set."""
    rows, params = {}, set()
    for n, line in enumerate(lines, 1):
        row = json.loads(line)
        if "git" in row:
            continue
        k = key(row)
        if k in rows:
            raise CheckError(f"{where}:{n}: duplicate row {k}")
        if row["metric"].split("[")[0] not in PRECISION:
            raise CheckError(f"{where}:{n}: no precision for {row['metric']}")
        rows[k] = row
        params.add(tuple(row[p] for p in PARAMS))
    if len(params) != 1:
        raise CheckError(f"{where}: want one parameter set, got {params}")
    return rows, dict(zip(PARAMS, params.pop()))


def read_rows(path):
    with open(path) as f:
        return parse_rows([l for l in f if l.strip()], path)


def committed_for(params):
    for path, want in COMMITTED.items():
        if want == params:
            return path
    raise CheckError(f"no committed rows file for {params}")


def fmt(value, decimals):
    return f"{value:,.{decimals}f}"


def compare(committed, fresh):
    """Differences between two row sets at the precision they render."""
    problems = []
    for k in sorted(set(committed) - set(fresh)):
        problems.append(f"missing row {k}")
    for k in sorted(set(fresh) - set(committed)):
        problems.append(f"row {k} is not in the committed rows")
    for k in sorted(set(committed) & set(fresh)):
        if committed[k].get("repeatable", True) is False:
            continue
        d = precision(k[2])
        old, new = fmt(committed[k]["value"], d), fmt(fresh[k]["value"], d)
        if old != new:
            problems.append(f"{k}: committed {old}, now {new}")
    return problems


# ----------------------------- rendering -----------------------------


class Rows:
    """Lookup over one row set that names the row it could not find."""

    def __init__(self, rows, params):
        self.rows, self.params = rows, params

    def __call__(self, figure, system, metric):
        try:
            return self.rows[(figure, system, metric)]["value"]
        except KeyError:
            raise CheckError(f"missing row {(figure, system, metric)}")

    def f(self, figure, system, metric, decimals=None):
        d = precision(metric) if decimals is None else decimals
        return fmt(self(figure, system, metric), d)


def table(header, body):
    lines = ["| " + " | ".join(header) + " |",
             "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(str(c) for c in row) + " |" for row in body]
    return "\n".join(lines) + "\n"


def ratio(a, b):
    return f"{a / b:.2f}x" if b else "n/a"


def render_table2(r):
    names = [("sequence read (MB/s)", "seq_read_mb_s", "169 / 165"),
             ("sequence write (MB/s)", "seq_write_mb_s", "155 / 148"),
             ("random read 4 KB (IOPS)", "rand_read_iops", "64 / 70"),
             ("random write 4 KB (IOPS)", "rand_write_iops", "143 / 5–140")]
    return table(["metric", "paper HDD / SMR", "measured HDD / SMR"],
                 [[label, paper, f"{r.f('table2', 'HDD', m)} / "
                   f"{r.f('table2', 'SMR', m)}"]
                  for label, m, paper in names])


def render_fig02(r):
    s = "LevelDB-HDD"
    g = lambda m, d=None: r.f("fig02", s, m, d)
    return table(
        ["claim", "paper (10 GB load)", f"measured ({r.params['mb']} MB load)"],
        [["compactions during random load", "~600", g("compactions")],
         ["SSTables written per compaction", "~10", g("avg_outputs", 2)],
         ["placement span per compaction", "scattered over the DB's span",
          f"{g('avg_span_mb', 1)} MB"],
         ["disk space touched", "≈ DB size (first 10 GB)",
          f"{g('space_touched_mb')} MB for {g('user_data_mb')} MB of data "
          f"(data / space {g('data_per_space_touched', 2)})"]])


def render_fig03(r):
    body = [[band] + [r.f("fig03", "LevelDB", f"{m}[{band}]") for m in
                      ("ssts_per_compaction", "bands_per_compaction", "wa",
                       "awa", "mwa")]
            for band in (20, 30, 40, 50, 60)]
    body.append(["paper, 40", "9.83", "6.22", "9.83", "", "52.85"])
    return table(["band (full-scale MB)", "SSTables / compaction",
                  "bands / compaction", "WA", "AWA", "MWA"], body)


MICRO = ("fill_random", "fill_seq", "read_seq", "read_random")


def normalized(r, fig, system, paper):
    return [system] + [
        f"{r(fig, system, m) / r(fig, 'LevelDB', m):.2f}" +
        (f" ({p})" if p else "") for m, p in zip(MICRO, paper)]


def render_fig08(r):
    norm = table(["system", "fill-random", "fill-seq", "read-seq",
                  "read-random"],
                 [normalized(r, "fig08", "SMRDB",
                             ("2.05", "~1.15", "~0.9 of SEALDB", "~1.0")),
                  normalized(r, "fig08", "SEALDB",
                             ("3.42", "~1.2", "3.96", "1.80"))])
    ops = r.params["read_ops"]
    absolute = table(
        ["system", "fill-random", "fill-seq", "read-seq", "read-random",
         "read-random device s", "of which compactions",
         "read-random keys found"],
        [[s] + [r.f("fig08", s, m) for m in MICRO] +
         [fmt(ops / r("fig08", s, "read_random"), 2),
          r.f("fig08", s, "read_random_compaction_s", 2),
          fmt(100 * r("fig08", s, "read_random_found_share"), 1) + " %"]
         for s in ("LevelDB", "SMRDB", "SEALDB")])
    return ("Normalized to LevelDB (paper values in parentheses):\n\n" + norm +
            "\nAbsolute ops/s (simulated device time):\n\n" + absolute)


def render_fig09(r):
    paper = {"Load": "largest gain on load",
             "A": "large gain, write-heavy", "B": "moderate",
             "C": "smallest gain", "D": "moderate", "E": "moderate",
             "F": "large gain"}
    label = {"Load": "Load", "A": "A (50r/50u)", "B": "B (95r/5u)",
             "C": "C (100r)", "D": "D (95r/5i latest)",
             "E": "E (95scan/5i)", "F": "F (50r/50rmw)"}
    body = [[label[w]] +
            [r.f("fig09", s, w) for s in ("LevelDB", "SMRDB", "SEALDB")] +
            [ratio(r("fig09", "SEALDB", w), r("fig09", "LevelDB", w)),
             paper[w], r.f("fig09", "SEALDB-shard", w)]
            for w in paper]
    ops = r.params["read_ops"]
    return (f"Ops/s, {fmt(ops, 0)} operations per workload "
            f"({fmt(ops // 10, 0)} for E):\n\n" +
            table(["workload", "LevelDB", "SMRDB", "SEALDB",
                   "SEALDB / LevelDB", "paper pattern", "SEALDB, 4 shards*"],
                  body) +
            "\n\\* Not repeatable: the 4-shard column's device time depends "
            "on thread\ninterleaving (ROADMAP item 1), so it is left out of "
            "the `--mb=4`\ncomparison.\n")


def render_fig10(r):
    systems = ("LevelDB", "SMRDB", "SEALDB")
    per_system = table(
        ["system", "compactions", "total latency (s)", "avg latency (ms)",
         "avg data (MB)", "avg SSTables"],
        [[s] + [r.f("fig10", s, m) for m in
                ("compactions", "total_latency_s", "avg_latency_ms",
                 "avg_data_mb", "avg_outputs")] for s in systems])
    total = lambda s: r("fig10", s, "total_latency_s")
    scale = r.params["scale"]
    claims = table(
        ["claim", "paper (40 GB)", f"measured ({r.params['mb']} MB)"],
        [["LevelDB / SEALDB total compaction latency", "4.30x",
          ratio(total("LevelDB"), total("SEALDB"))],
         ["SMRDB / SEALDB total compaction latency", "1.89x",
          ratio(total("SMRDB"), total("SEALDB"))],
         ["SMRDB average compaction data", "~900 MB",
          f"{r.f('fig10', 'SMRDB', 'avg_data_mb', 1)} MB"],
         ["SEALDB average set", "27.48 MB = 6.87 SSTables",
          f"{r.f('fig10', 'SEALDB', 'avg_data_mb', 2)} MB at 1/{scale} "
          f"(= {fmt(r('fig10', 'SEALDB', 'avg_data_mb') * scale, 1)} MB "
          f"full-scale-equivalent) holding "
          f"{r.f('fig10', 'SEALDB', 'avg_outputs', 2)} SSTables"]])
    return per_system + "\n" + claims


def render_fig11(r):
    g = lambda m, d=None: r.f("fig11", "SEALDB", m, d)
    return table(
        ["claim", "paper", "measured"],
        [["each compaction's outputs contiguous", "all",
          f"{g('contiguous_pct', 1)} % of {g('compactions')} compactions"],
         ["compact footprint from reuse",
          "2.7 GB used for a 10 GB load's churn",
          f"{g('occupied_mb')} MB occupied for {g('user_data_mb')} MB "
          f"loaded (occupied / loaded {g('occupied_per_user_byte', 2)}), "
          f"{g('dynamic_bands')} dynamic bands"]])


def render_fig12(r):
    systems = ("LevelDB", "SMRDB", "SEALDB")
    per_system = table(
        ["system", "WA", "AWA", "MWA", "logical MB", "physical MB",
         "device s", "seeks", "band RMWs"],
        [[s] + [r.f("fig12", s, m) for m in
                ("wa", "awa", "mwa", "logical_mb", "physical_mb", "busy_s",
                 "seeks", "rmws")] for s in systems])
    g = lambda s, m: r.f("fig12", s, m)
    claims = table(
        ["claim", "paper", "measured"],
        [["WA: SEALDB vs LevelDB", "~9.8 vs ~9.8",
          f"{g('SEALDB', 'wa')} vs {g('LevelDB', 'wa')}"],
         ["AWA: LevelDB", "~5.4", g("LevelDB", "awa")],
         ["AWA: SMRDB, SEALDB", "1.0, 1.0",
          f"{g('SMRDB', 'awa')}, {g('SEALDB', 'awa')}"],
         ["MWA reduction, SEALDB vs LevelDB", "6.70x",
          ratio(r("fig12", "LevelDB", "mwa"), r("fig12", "SEALDB", "mwa"))],
         ["WA: SMRDB vs LevelDB", "~0.6x",
          ratio(r("fig12", "SMRDB", "wa"), r("fig12", "LevelDB", "wa"))]])
    return per_system + "\n" + claims


def render_fig13(r):
    g = lambda m, d=None: r.f("fig13", "SEALDB", m, d)
    return table(
        ["claim", "paper (40 GB)", f"measured ({r.params['mb']} MB)"],
        [["every dynamic band followed by a fragment or gap", "yes",
          f"{g('dynamic_bands')} bands"],
         ["fragment share of occupied space", "9.32 %",
          f"{g('fragment_pct', 2)} %"],
         ["fragment threshold: the average set", "27.48 MB",
          f"{g('avg_set_mb')} MB at 1/{r.params['scale']}"],
         ["occupied space", "",
          f"{g('occupied_mb')} MB: {g('allocated_mb')} MB live, "
          f"{g('fragment_mb')} MB fragments, {g('large_free_mb')} MB in "
          f"large reusable free regions"]])


def render_fig14(r):
    norm = table(["system", "fill-random", "fill-seq", "read-seq",
                  "read-random"],
                 [normalized(r, "fig14", s, ("",) * 4)
                  for s in ("LevelDB+sets", "SEALDB")])

    def share(m):
        base = r("fig14", "LevelDB", m)
        gain = r("fig14", "SEALDB", m) - base
        if gain <= 0:
            return "none: SEALDB does not gain"
        return f"{100 * (r('fig14', 'LevelDB+sets', m) - base) / gain:.0f} %"

    shares = table(
        ["share of SEALDB's gain over LevelDB from sets alone", "paper",
         "measured"],
        [["random write", "~41 %", share("fill_random")],
         ["random read", "~50 %", share("read_random")],
         ["sequential read", "~50 %", share("read_seq")],
         ["sequential write", "~0 % (dynamic bands only)",
          share("fill_seq")]])
    return ("Normalized to LevelDB:\n\n" + norm + "\n" + shares)


def render_readme(r):
    g = lambda fig, s, m: r(fig, s, m)
    scale = r.params["scale"]
    ycsb = lambda w: ratio(g("fig09", "SEALDB", w), g("fig09", "LevelDB", w))
    return (
        f"{r.params['mb']} MB random load at scale 1/{scale}, simulated "
        f"device time, from `sealfig all`:\n\n" +
        table(["metric", "paper", "this repo", "figure"], [
            ["random write, SEALDB vs LevelDB", "3.42x",
             ratio(g("fig08", "SEALDB", "fill_random"),
                   g("fig08", "LevelDB", "fill_random")), "`fig08`"],
            ["random write, SEALDB vs SMRDB", "1.67x",
             f"{ratio(g('fig08', 'SEALDB', 'fill_random'), g('fig08', 'SMRDB', 'fill_random'))} "
             f"({r.f('fig08', 'SEALDB', 'fill_random')} / "
             f"{r.f('fig08', 'SMRDB', 'fill_random')} ops/s)", "`fig08`"],
            [f"LevelDB AWA at 40 MB bands ({40 / scale:g} MB at 1/{scale})",
             "5.38x", f"{r.f('fig12', 'LevelDB', 'awa')}x", "`fig12`"],
            ["MWA reduction, SEALDB vs LevelDB", "6.70x",
             ratio(g("fig12", "LevelDB", "mwa"), g("fig12", "SEALDB", "mwa")),
             "`fig12`"],
            ["total compaction latency, LevelDB / SEALDB", "4.30x",
             ratio(g("fig10", "LevelDB", "total_latency_s"),
                   g("fig10", "SEALDB", "total_latency_s")), "`fig10`"],
            ["avg set size", "27.48 MB = 6.87 SSTables",
             f"{r.f('fig10', 'SEALDB', 'avg_data_mb', 2)} MB at 1/{scale} "
             f"({fmt(g('fig10', 'SEALDB', 'avg_data_mb') * scale, 1)} MB "
             f"full-scale-equivalent), "
             f"{r.f('fig10', 'SEALDB', 'avg_outputs', 2)} SSTables",
             "`fig10`"],
            ["fragments after random load", "9.32 %",
             f"{r.f('fig13', 'SEALDB', 'fragment_pct', 2)} %", "`fig13`"],
            ["YCSB, SEALDB vs LevelDB", "largest on Load/A/F, smallest on C",
             "; ".join(f"{w} {ycsb(w)}" for w in
                       ("Load", "A", "F", "B", "C", "D", "E")), "`fig09`"],
        ]))


RENDER = {
    "readme": render_readme, "table2": render_table2, "fig02": render_fig02,
    "fig03": render_fig03, "fig08": render_fig08, "fig09": render_fig09,
    "fig10": render_fig10, "fig11": render_fig11, "fig12": render_fig12,
    "fig13": render_fig13, "fig14": render_fig14,
}


def render_doc(text, rows, render=RENDER):
    """`text` with every block re-rendered, and the block ids it holds."""
    seen = []

    def sub(m):
        block = m.group(1)
        if block not in render:
            raise CheckError(f"unknown block sealfig:{block}")
        seen.append(block)
        return (f"<!-- sealfig:{block} -->\n{render[block](rows)}"
                f"<!-- /sealfig -->")

    return BLOCK.sub(sub, text), seen


def check_docs(docs, rows, render=RENDER):
    """Problems with the docs' blocks, given {name: text}."""
    problems, seen = [], []
    for name, text in docs.items():
        try:
            rendered, ids = render_doc(text, rows, render)
        except CheckError as e:
            problems.append(f"{name}: {e}")
            continue
        seen += ids
        for (bid, old), (_, new) in zip(BLOCK.findall(text),
                                        BLOCK.findall(rendered)):
            if old != new:
                problems.append(f"{name}: block sealfig:{bid} differs from "
                                f"what the committed rows render")
    for bid in sorted(set(render) - set(seen)):
        problems.append(f"no block sealfig:{bid} in {', '.join(docs)}")
    return problems


def load_docs():
    docs = {}
    for name in DOCS:
        with open(os.path.join(ROOT, name)) as f:
            docs[name] = f.read()
    return docs


def doc_rows():
    return Rows(*read_rows(os.path.join(ROOT, DOC_ROWS)))


def git_stamp():
    """The commit the rows come from; +dirty when a build input differs."""
    sha = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True, check=True)
    dirty = subprocess.run(
        ["git", "status", "--porcelain", "--", "src", "bench",
         "CMakeLists.txt"], cwd=ROOT, capture_output=True, text=True,
        check=True)
    return sha.stdout.strip() + ("+dirty" if dirty.stdout.strip() else "")


def install(paths):
    for path in paths:
        with open(path) as f:
            lines = [l for l in f if l.strip()]
        _, params = parse_rows(lines, path)
        dest = committed_for(params)
        with open(os.path.join(ROOT, dest), "w") as f:
            f.write(json.dumps({"git": git_stamp()}) + "\n")
            f.writelines(lines)
        print(f"figures.py: {path} -> {dest}")
    rows = doc_rows()
    for name, text in load_docs().items():
        rendered, _ = render_doc(text, rows)
        with open(os.path.join(ROOT, name), "w") as f:
            f.write(rendered)
    print(f"figures.py: rendered the tables of {', '.join(DOCS)}")


def check(paths):
    problems = []
    for path in paths:
        fresh, params = read_rows(path)
        committed, _ = read_rows(os.path.join(ROOT, committed_for(params)))
        found = compare(committed, fresh)
        problems += [f"{path}: {p}" for p in found]
        if not found:
            print(f"figures.py: {path} matches {committed_for(params)} "
                  f"({len(fresh)} rows)")
    found = check_docs(load_docs(), doc_rows())
    problems += found
    if not found:
        print(f"figures.py: the tables of {', '.join(DOCS)} match "
              f"{DOC_ROWS}")
    for p in problems:
        print(f"figures.py: check failed: {p}", file=sys.stderr)
    return not problems


def selftest():
    """The check gates CI, so prove its failure modes on fixture rows: an
    edited number inside a rendered block, a missing row and a changed
    value each fail; an untouched set, a change below the rendered
    precision and a change to a row that is not repeatable pass."""
    params = {"mb": 4, "scale": 16, "read_ops": 20000}
    values = {"LevelDB": (8.89, 4.23, 37.6, 210.3, 889.5, 3.2, 3404, 778),
              "SMRDB": (22.8, 1.0, 22.8, 520.1, 520.1, 15.6, 1456, 0),
              "SEALDB": (8.4, 1.0, 8.4, 191.1, 191.1, 6.4, 1363, 0)}
    metrics = ("wa", "awa", "mwa", "logical_mb", "physical_mb", "busy_s",
               "seeks", "rmws")
    lines = [json.dumps(dict(figure="fig12", system=s, metric=m, value=v,
                             **params))
             for s, vs in values.items() for m, v in zip(metrics, vs)]
    rows, _ = parse_rows(lines, "fixture")
    render = {"fig12": render_fig12}
    doc, _ = render_doc("# Fig. 12\n\n<!-- sealfig:fig12 -->\n"
                        "<!-- /sealfig -->\n", Rows(rows, params), render)

    assert not check_docs({"doc": doc}, Rows(rows, params), render), \
        "a freshly rendered doc must pass"
    edited = doc.replace("| 3,404 |", "| 3,405 |")
    assert edited != doc
    assert check_docs({"doc": edited}, Rows(rows, params), render), \
        "a hand-edited number inside a block must fail"
    assert check_docs({"doc": "# Fig. 12\n"}, Rows(rows, params), render), \
        "a doc without the block must fail"

    missing = {k: v for k, v in rows.items() if k[2] != "seeks"}
    assert check_docs({"doc": doc}, Rows(missing, params), render), \
        "a missing row must fail the render"
    assert compare(rows, missing), "a missing row must fail the comparison"

    def changed(metric, value, **extra):
        fresh = {k: dict(v) for k, v in rows.items()}
        fresh[("fig12", "SEALDB", metric)].update(value=value, **extra)
        return fresh

    assert not compare(rows, rows), "identical rows must pass"
    assert compare(rows, changed("wa", 8.41)), "a changed value must fail"
    assert not compare(rows, changed("wa", 8.401)), \
        "a change below the rendered precision must pass"
    exempt = {k: dict(v, repeatable=False) for k, v in rows.items()}
    assert not compare(exempt, changed("seeks", 9999, repeatable=False)), \
        "a row that is not repeatable must not be compared"
    print("figures.py: selftest passed (edited block, missing row and "
          "changed value each fail)")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("rows", nargs="*")
    args = ap.parse_args()
    try:
        if args.selftest:
            selftest()
            return 0
        if args.check:
            return 0 if check(args.rows) else 1
        install(args.rows)
        return 0
    except CheckError as e:
        print(f"figures.py: {e}", file=sys.stderr)
        return 1 if args.check else 2
    except (OSError, ValueError, subprocess.CalledProcessError) as e:
        print(f"figures.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
