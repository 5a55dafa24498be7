#!/usr/bin/env python3
"""Paired perfbench runs of two commits, summarized as distributions.

Run from the root of a checkout of the repository:

    python3 scripts/perf_pairs.py --parent HEAD~1 --change HEAD \\
        --out BENCH_<n>.json [--declare DECLARED.json] \\
        [--claim METRIC@WORKLOAD ...]

Both sides must be commits of this checkout.  The script checks them out as
detached git worktrees under build/perf_pairs/{parent,change}, each with its
own perfbench build directory, and runs `perfbench/run.py` on them in
PAIRS alternating pairs for every workload of BENCHMARK.json, each run
BENCHMARK.json's `run_seconds` long: pair i runs the parent first when i is
even and the change first when i is odd.  Seed 1 is perfbench's default
seed; seed 2 is held out (see perfbench/run.py).

The output file names both commits and their trees, and holds, per
workload, seed and end-to-end metric of BENCHMARK.json and for both sides:
n, median, p05, p95, IQR, min and max, plus the number of pairs in which the
change beat the parent, the ratio of the medians, every run's value in
pair order and, as `pair_ratio`, the n, median, p05, p95 and IQR of the
within-pair change/parent ratios.  The two runs of a pair share the
host's state at their time, so the pair ratio does not swing with the
host's slow phases the way each side's median can.  Per workload and seed
it also holds every run's `attempted` and `failed` operation counts, and
the same statistics of three diagnostics that broker_bench prints on its
`timed:` and `median of` lines: the host-speed scale median, the unscaled
whole-phase CPU time per purchase and the timed phase's page faults.  Diagnostics explain a result
(a gain that is only a slower measuring stick shows as a lower scale) and
are never gated.  The script exits 1 without writing the file
when a counter-derived metric (DETERMINISTIC) differs between the two sides
of a pair, when the change fails a larger share of its attempted operations
than the parent, or when a run fails its correctness checks.  The worktrees
are removed when the runs end.  `validate()` is the schema check that
scripts/test_perf_pairs.py applies to every committed file.

A change that moves a counter-derived metric on purpose declares it with
`--declare FILE`: a JSON list of {"workload", "seed", "metric", "parent",
"change", "why"} objects, one per moved value.  A declared metric passes
only when every parent run equals the declared parent value and every
change run the declared change value; every other counter-derived metric
must still be equal on both sides.  The declarations are written into the
output file under "declared", and `validate()` accepts a moved metric only
when the file declares it.

A change that claims a gain names it with `--claim METRIC@WORKLOAD`
(repeatable), e.g. `--claim setup_s@menu_market`.  The claim is met on a
seed only when the change wins at least CLAIM_MIN_WINS of the PAIRS pairs,
its median beats the parent's by more than the parent's IQR, and the pair
ratio's p95 is below 1 (its p05 above 1 for a higher-is-better metric), so
a gain that some pairs reverse is not met however far the medians moved.
The verdicts are written into the output file under "claims", each with the
reasons a seed falls short; `validate()` recomputes them from the results.
The script writes the file and then exits 1 when a claim is not met.
"""

import argparse
import json
import os
import platform
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = "perf_pairs/6"
#: Schemas validate() accepts; files written before perf_pairs/3 have no
#: diagnostics, files written before perf_pairs/4 declare no moves, files
#: written before perf_pairs/5 have no pair ratios and files written before
#: perf_pairs/6 have no claims.
SCHEMAS = ("perf_pairs/2", "perf_pairs/3", "perf_pairs/4", "perf_pairs/5",
           SCHEMA)
SIDES = ("parent", "change")
SEEDS = (1, 2)
PAIRS = 10
DETERMINISTIC = ("uplink_bytes_per_purchase", "epsilon_per_purchase",
                 "sold_share")
STAT_FIELDS = ("n", "median", "p05", "p95", "iqr", "min", "max")
PAIR_RATIO_FIELDS = ("n", "median", "p05", "p95", "iqr")
OPERATION_FIELDS = ("attempted", "failed")
DECLARATION_FIELDS = ("workload", "seed", "metric", "parent", "change",
                      "why")
CLAIM_FIELDS = ("metric", "workload", "seeds", "met")
#: Pairs of PAIRS the change must win for a claimed gain.
CLAIM_MIN_WINS = 9
#: Per-run diagnostics parsed from broker_bench's output, by the pattern
#: that captures each one.
DIAGNOSTICS = {
    "host_speed_scale": re.compile(r"host speed scale median ([0-9.]+)"),
    "unscaled_cpu_us_per_purchase": re.compile(
        r"whole phase: wall/cpu per purchase [0-9.]+/([0-9.]+) us"),
    "page_faults": re.compile(r"s system, ([0-9]+) page faults\)"),
}
OBJECT_ID = re.compile(r"[0-9a-f]{40}")


def load_spec(root=ROOT):
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def percentile(sorted_values, q):
    """Linear interpolation between closest ranks (numpy's default)."""
    if not sorted_values:
        raise ValueError("percentile of no values")
    position = q * (len(sorted_values) - 1)
    lower = int(position)
    low = sorted_values[lower]
    high = sorted_values[min(lower + 1, len(sorted_values) - 1)]
    # Exact when the neighbours are equal, and never outside them.
    return min(max(low + (high - low) * (position - lower), low), high)


def sample_stats(values):
    ordered = sorted(values)
    return {
        "n": len(ordered),
        "median": percentile(ordered, 0.5),
        "p05": percentile(ordered, 0.05),
        "p95": percentile(ordered, 0.95),
        "iqr": percentile(ordered, 0.75) - percentile(ordered, 0.25),
        "min": ordered[0],
        "max": ordered[-1],
    }


def pair_ratio(parent, change):
    """Statistics of the change/parent ratio within each pair, over the
    pairs whose parent value is not 0 (None when there are none)."""
    ratios = [c / p for p, c in zip(parent, change) if p]
    if not ratios:
        return None
    stats = sample_stats(ratios)
    return {field: stats[field] for field in PAIR_RATIO_FIELDS}


def schema_version(doc):
    """The N of a perf_pairs/N document validate() accepts, else 0."""
    schema = doc.get("schema")
    return int(schema.split("/")[1]) if schema in SCHEMAS else 0


def failed_share(operations, side):
    attempted = sum(operations[side]["attempted"])
    return sum(operations[side]["failed"]) / attempted if attempted else 0.0


def side_summary(pairs, field, name):
    """Both sides' statistics and runs of one value, and their ratio."""
    values = {side: [pair[side][field][name] for pair in pairs]
              for side in SIDES}
    stats = {side: sample_stats(values[side]) for side in SIDES}
    return {
        **stats,
        "runs": values,
        "median_ratio": (stats["change"]["median"] / stats["parent"]["median"]
                         if stats["parent"]["median"] else None),
    }


def counter_problem(name, runs, declared):
    """Why the two sides' runs of counter-derived metric `name` fail, or
    None.  `declared` maps metric names to their declaration, if any."""
    parent, change = runs["parent"], runs["change"]
    declaration = declared.get(name)
    if declaration is None:
        if parent != change:
            return (f"{name} differs: parent {parent}, change {change}")
        return None
    for side in SIDES:
        if any(value != declaration[side] for value in runs[side]):
            return (f"{name} {side} runs {runs[side]} are not the declared "
                    f"{declaration[side]!r}")
    return None


def declarations_for(declared, workload, seed):
    """The declarations of one workload and seed, by metric name."""
    return {d["metric"]: d for d in declared
            if d["workload"] == workload and str(d["seed"]) == str(seed)}


def summarize(pairs, metrics, declared=None):
    """Statistics of one workload and seed.

    `pairs` is a list of {"parent": run, "change": run} dicts, one per pair
    of runs, where a run is {"attempted", "failed", "metrics",
    "diagnostics"} with the metric and diagnostic values by name; `metrics`
    lists BENCHMARK.json's end-to-end entries, and `declared` maps the
    counter-derived metrics this workload and seed move on purpose to
    their declarations.  Raises ValueError when a counter-derived metric
    differs between the two sides of a pair without a declaration, does not
    match its declaration, or the change fails a larger share of its
    operations than the parent.
    """
    declared = declared or {}
    operations = {side: {field: [pair[side][field] for pair in pairs]
                         for field in OPERATION_FIELDS}
                  for side in SIDES}
    if failed_share(operations, "change") > failed_share(operations,
                                                          "parent"):
        raise ValueError(f"the change fails more operations: {operations}")
    summary = {"operations": operations, "metrics": {},
               "diagnostics": {name: side_summary(pairs, "diagnostics", name)
                               for name in DIAGNOSTICS}}
    for metric in metrics:
        name = metric["name"]
        entry = side_summary(pairs, "metrics", name)
        parent, change = entry["runs"]["parent"], entry["runs"]["change"]
        problem = (counter_problem(name, entry["runs"], declared)
                   if name in DETERMINISTIC else None)
        if problem:
            raise ValueError(problem)
        higher = metric["better"] == "higher"
        wins = sum(1 for p, c in zip(parent, change)
                   if (c > p if higher else c < p))
        summary["metrics"][name] = {"unit": metric["unit"],
                                    "better": metric["better"],
                                    **entry, "change_wins": wins,
                                    "pair_ratio": pair_ratio(parent, change)}
    return summary


def parse_claim(text, spec):
    """The {"metric", "workload"} of a METRIC@WORKLOAD argument."""
    metric, _, workload = text.partition("@")
    if metric not in {m["name"] for m in spec["end_to_end"]}:
        raise ValueError(f"claim {text!r}: {metric!r} is not an end-to-end "
                         "metric")
    if workload not in {w["name"] for w in spec["workloads"]}:
        raise ValueError(f"claim {text!r}: {workload!r} is not a workload")
    return {"metric": metric, "workload": workload}


def claim_shortfalls(entry):
    """Why one seed's summarized metric does not meet a claimed gain, as
    readable lines (none when it does)."""
    higher = entry["better"] == "higher"
    parent, change = entry["parent"]["median"], entry["change"]["median"]
    reasons = []
    if entry["change_wins"] < CLAIM_MIN_WINS:
        reasons.append(f"the change wins {entry['change_wins']} of {PAIRS} "
                       f"pairs, fewer than {CLAIM_MIN_WINS}")
    gain = change - parent if higher else parent - change
    if not gain > entry["parent"]["iqr"]:
        reasons.append(f"the medians move by {gain:g} in the better "
                       f"direction, not more than the parent's IQR "
                       f"{entry['parent']['iqr']:g}")
    ratio = entry.get("pair_ratio")
    field = "p05" if higher else "p95"
    if ratio is None or not (ratio[field] > 1 if higher else
                             ratio[field] < 1):
        bound = "n/a" if ratio is None else f"{ratio[field]:g}"
        reasons.append(f"the pair ratio's {field} {bound} is not "
                       f"{'above' if higher else 'below'} 1")
    return reasons


def claim_verdict(claim, results):
    """A claim's per-seed shortfalls and whether it is met on every seed."""
    seeds = {}
    for seed in SEEDS:
        entry = results[claim["workload"]][str(seed)]["metrics"][
            claim["metric"]]
        reasons = claim_shortfalls(entry)
        seeds[str(seed)] = {"met": not reasons, "reasons": reasons}
    return {**claim, "seeds": seeds,
            "met": all(verdict["met"] for verdict in seeds.values())}


def validate(doc, spec):
    """Every schema problem of a perf_pairs document, as readable lines."""
    problems = []
    if not isinstance(doc, dict):
        return ["the document is not an object"]
    if doc.get("schema") not in SCHEMAS:
        problems.append(f"schema is {doc.get('schema')!r}, not one of "
                        f"{SCHEMAS!r}")
    for side in SIDES:
        ids = doc.get(side)
        for key in ("commit", "tree"):
            value = ids.get(key) if isinstance(ids, dict) else None
            if not isinstance(value, str) or not OBJECT_ID.fullmatch(value):
                problems.append(f"{side} {key} is not a full git object id")
    if doc.get("pairs") != PAIRS:
        problems.append(f"pairs is not {PAIRS}")
    if doc.get("seconds") != spec["run_seconds"]:
        problems.append("seconds is not BENCHMARK.json's run_seconds")
    version = schema_version(doc)
    declared = []
    if version >= 4:
        if "declared" not in doc:
            problems.append("declared is missing")
        declared = doc.get("declared", [])
    declaration_problems = validate_declarations(declared, spec)
    if declaration_problems:
        return problems + declaration_problems
    if version >= 6 and not isinstance(doc.get("claims"), list):
        problems.append("claims is not a list")
    results = doc.get("results")
    workloads = {w["name"] for w in spec["workloads"]}
    if not isinstance(results, dict) or set(results) != workloads:
        return problems + ["results do not hold BENCHMARK.json's workloads"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    for workload, seeds in results.items():
        if not isinstance(seeds, dict) or set(seeds) != {
                str(seed) for seed in SEEDS}:
            problems.append(f"{workload}: seeds are not {SEEDS}")
            continue
        for seed, summary in seeds.items():
            where = f"{workload}/seed {seed}"
            if not isinstance(summary, dict):
                problems.append(f"{where}: not an object")
                continue
            problems += validate_operations(where, summary.get("operations"))
            if version >= 4:
                problems += validate_diagnostics(where,
                                                 summary.get("diagnostics"))
            table = summary.get("metrics")
            if not isinstance(table, dict) or set(table) != set(metrics):
                problems.append(f"{where}: metrics are not BENCHMARK.json's "
                                "end-to-end set")
                continue
            moved = declarations_for(declared, workload, seed)
            for name, entry in table.items():
                problems += validate_entry(f"{where}/{name}", entry,
                                           metrics[name], moved, version)
    if version >= 6 and not problems:
        problems += validate_claims(doc["claims"], results, spec)
    return problems


def validate_claims(claims, results, spec):
    """Schema problems of a list of claim verdicts over valid results."""
    problems, seen = [], set()
    for i, claim in enumerate(claims):
        where = f"claims[{i}]"
        if not isinstance(claim, dict) or set(claim) != set(CLAIM_FIELDS):
            problems.append(f"{where}: fields are not {CLAIM_FIELDS}")
            continue
        try:
            named = parse_claim(f"{claim['metric']}@{claim['workload']}",
                                spec)
        except ValueError as error:
            problems.append(f"{where}: {error}")
            continue
        key = (claim["metric"], claim["workload"])
        if key in seen:
            problems.append(f"{where}: {key} is claimed twice")
        seen.add(key)
        if claim != claim_verdict(named, results):
            problems.append(f"{where}: the verdict is not the one the "
                            "results give")
    return problems


def validate_declarations(declared, spec):
    """Schema problems of a list of declared counter-derived moves."""
    if not isinstance(declared, list):
        return ["declared is not a list"]
    workloads = {w["name"] for w in spec["workloads"]}
    problems, seen = [], set()
    for i, d in enumerate(declared):
        where = f"declared[{i}]"
        if not isinstance(d, dict) or set(d) != set(DECLARATION_FIELDS):
            problems.append(f"{where}: fields are not {DECLARATION_FIELDS}")
            continue
        if d["workload"] not in workloads:
            problems.append(f"{where}: {d['workload']!r} is not a workload")
        if d["seed"] not in SEEDS:
            problems.append(f"{where}: seed is not one of {SEEDS}")
        if d["metric"] not in DETERMINISTIC:
            problems.append(f"{where}: {d['metric']!r} is not one of "
                            f"{DETERMINISTIC}")
        if not all(isinstance(d[side], (int, float)) for side in SIDES):
            problems.append(f"{where}: parent and change are not numbers")
        elif d["parent"] == d["change"]:
            problems.append(f"{where}: declares no move")
        if not isinstance(d["why"], str) or not d["why"].strip():
            problems.append(f"{where}: why is empty")
        key = (d["workload"], d["seed"], d["metric"])
        if key in seen:
            problems.append(f"{where}: {key} is declared twice")
        seen.add(key)
    return problems


def validate_operations(where, operations):
    if not isinstance(operations, dict) or set(operations) != set(SIDES):
        return [f"{where}: operations lack {SIDES}"]
    for side in SIDES:
        counts = operations[side]
        if not isinstance(counts, dict) or set(counts) != set(
                OPERATION_FIELDS) or any(
                    not isinstance(counts[field], list)
                    or len(counts[field]) != PAIRS
                    or not all(isinstance(v, int) and v >= 0
                               for v in counts[field])
                    for field in OPERATION_FIELDS):
            return [f"{where}: {side} operations are not {PAIRS} counts of "
                    f"{OPERATION_FIELDS}"]
    if failed_share(operations, "change") > failed_share(operations,
                                                          "parent"):
        return [f"{where}: the change fails more operations"]
    return []


def validate_diagnostics(where, diagnostics):
    if not isinstance(diagnostics, dict) or set(diagnostics) != set(
            DIAGNOSTICS):
        return [f"{where}: diagnostics are not {sorted(DIAGNOSTICS)}"]
    problems = []
    for name, entry in diagnostics.items():
        if not isinstance(entry, dict):
            problems.append(f"{where}/{name}: not an object")
            continue
        problems += validate_sides(f"{where}/{name}", entry)
    return problems


def validate_entry(where, entry, metric, declared, version=0):
    if not isinstance(entry, dict):
        return [f"{where}: not an object"]
    problems = [f"{where}: {key} is not {metric[key]!r}"
                for key in ("unit", "better")
                if entry.get(key) != metric[key]]
    problems += validate_sides(where, entry)
    if version >= 5:
        problems += validate_pair_ratio(where, entry)
    wins = entry.get("change_wins")
    if not isinstance(wins, int) or not 0 <= wins <= PAIRS:
        problems.append(f"{where}: change_wins is not in [0, {PAIRS}]")
    if not problems and metric["name"] in DETERMINISTIC:
        problem = counter_problem(metric["name"], entry["runs"], declared)
        if problem:
            problems.append(f"{where}: {problem}")
    return problems


def validate_pair_ratio(where, entry):
    if "pair_ratio" not in entry:
        return [f"{where}: pair_ratio is missing"]
    stats = entry["pair_ratio"]
    if stats is None:
        return []
    if not isinstance(stats, dict) or set(stats) != set(PAIR_RATIO_FIELDS):
        return [f"{where}: pair_ratio lacks {PAIR_RATIO_FIELDS}"]
    if not all(isinstance(stats[f], (int, float))
               for f in PAIR_RATIO_FIELDS):
        return [f"{where}: pair_ratio has a non-number"]
    if not 1 <= stats["n"] <= PAIRS:
        return [f"{where}: pair_ratio n is not in [1, {PAIRS}]"]
    if not (stats["p05"] <= stats["median"] <= stats["p95"]) or (
            stats["iqr"] < 0):
        return [f"{where}: pair_ratio statistics are out of order"]
    return []


def validate_sides(where, entry):
    """Both sides' statistics and runs of one metric or diagnostic."""
    problems = []
    for side in SIDES:
        stats = entry.get(side)
        if not isinstance(stats, dict) or set(stats) != set(STAT_FIELDS):
            problems.append(f"{where}: {side} lacks {STAT_FIELDS}")
            continue
        if stats["n"] != PAIRS:
            problems.append(f"{where}: {side} n is not {PAIRS}")
        if not all(isinstance(stats[f], (int, float)) for f in STAT_FIELDS):
            problems.append(f"{where}: {side} has a non-number")
            continue
        if not (stats["min"] <= stats["p05"] <= stats["median"]
                <= stats["p95"] <= stats["max"]) or stats["iqr"] < 0:
            problems.append(f"{where}: {side} statistics are out of order")
    runs = entry.get("runs")
    if not isinstance(runs, dict) or any(
            not isinstance(runs.get(side), list) or len(runs[side]) != PAIRS
            for side in SIDES):
        problems.append(f"{where}: runs do not hold {PAIRS} values a side")
    return problems


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def run_once(tree, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True, check=False)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {workload} seed {seed} exited "
                           f"{result.returncode}")
    summary = json.loads(lines[-1])
    if not summary["correct"]:
        raise RuntimeError(f"{tree}: {workload} seed {seed} is not correct")
    return {"attempted": summary["attempted"], "failed": summary["failed"],
            "metrics": {name: metric["value"]
                        for name, metric in summary["metrics"].items()},
            "diagnostics": parse_diagnostics(result.stdout)}


def parse_diagnostics(output):
    """The DIAGNOSTICS values of one broker_bench run's output."""
    values = {}
    for name, pattern in DIAGNOSTICS.items():
        match = pattern.search(output)
        if match is None:
            raise RuntimeError(f"no {name} in the benchmark's output")
        values[name] = (int(match.group(1)) if name == "page_faults"
                        else float(match.group(1)))
    return values


def measure(trees, spec, declared):
    results = {}
    seconds = spec["run_seconds"]
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            pairs = []
            for i in range(PAIRS):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {side: run_once(trees[side], workload, seed, seconds)
                        for side in order}
                pairs.append(pair)
                print(f"{workload} seed {seed} pair {i + 1}/{PAIRS}: "
                      "purchases_per_s parent "
                      f"{pair['parent']['metrics']['purchases_per_s']:.0f} "
                      "change "
                      f"{pair['change']['metrics']['purchases_per_s']:.0f}",
                      file=sys.stderr)
            results.setdefault(workload, {})[str(seed)] = summarize(
                pairs, spec["end_to_end"],
                declarations_for(declared, workload, seed))
    return results


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD~1")
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--out", required=True, help="the BENCH file to write")
    parser.add_argument("--declare", metavar="FILE",
                        help="JSON list of counter-derived metrics the "
                        "change moves on purpose, with both values")
    parser.add_argument("--claim", metavar="METRIC@WORKLOAD",
                        action="append", default=[],
                        help="a gain the change claims (repeatable)")
    return parser.parse_args(argv)


def load_declarations(path, spec):
    """The declarations in `path` (none without one), checked."""
    if path is None:
        return []
    with open(path, encoding="utf-8") as f:
        declared = json.load(f)
    problems = validate_declarations(declared, spec)
    if problems:
        raise ValueError("; ".join(problems))
    return declared


def main(argv):
    args = parse_args(argv)
    spec = load_spec()
    try:
        declared = load_declarations(args.declare, spec)
    except (OSError, ValueError) as error:
        print(f"perf_pairs.py: {args.declare}: {error}", file=sys.stderr)
        return 1
    try:
        claims = [parse_claim(text, spec) for text in args.claim]
    except ValueError as error:
        print(f"perf_pairs.py: {error}", file=sys.stderr)
        return 1
    sides = {side: {"commit": git("rev-parse", f"{rev}^{{commit}}"),
                    "tree": git("rev-parse", f"{rev}^{{tree}}")}
             for side, rev in (("parent", args.parent),
                               ("change", args.change))}
    base = os.path.join(ROOT, "build", "perf_pairs")
    trees = {side: os.path.join(base, side) for side in SIDES}
    try:
        for side in SIDES:
            if os.path.exists(trees[side]):
                git("worktree", "remove", "--force", trees[side])
            git("worktree", "add", "--detach", trees[side],
                sides[side]["commit"])
            # The first run builds the side's benchmark; its numbers are
            # not kept.
            run_once(trees[side], spec["workloads"][0]["name"], SEEDS[0],
                     0.01)
        results = measure(trees, spec, declared)
    except (RuntimeError, ValueError, subprocess.CalledProcessError) as error:
        print(f"perf_pairs.py: {error}", file=sys.stderr)
        return 1
    finally:
        for side in SIDES:
            if os.path.exists(trees[side]):
                git("worktree", "remove", "--force", trees[side])
        git("worktree", "prune")
    doc = {
        "schema": SCHEMA,
        **sides,
        "pairs": PAIRS,
        "seconds": spec["run_seconds"],
        "order": "pair i runs the parent first when i is even",
        "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
        "declared": declared,
        "claims": [claim_verdict(claim, results) for claim in claims],
        "results": results,
    }
    problems = validate(doc, spec)
    if problems:
        print("\n".join(f"FAIL {p}" for p in problems), file=sys.stderr)
        return 1
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    for claim in doc["claims"]:
        for seed, verdict in claim["seeds"].items():
            print(f"claim {claim['metric']}@{claim['workload']} seed {seed}: "
                  + ("met" if verdict["met"] else
                     "NOT met: " + "; ".join(verdict["reasons"])),
                  file=sys.stderr)
    return 0 if all(claim["met"] for claim in doc["claims"]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
