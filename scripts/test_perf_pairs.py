#!/usr/bin/env python3
"""Schema tests for scripts/perf_pairs.py and the BENCH file it wrote.

    python3 scripts/test_perf_pairs.py

Summarizes a small synthetic set of run pairs, checks the statistics and
that the result validates, checks that damaged copies do not, checks that a
declared move of a counter-derived metric passes while an undeclared or
wrongly declared one fails, checks the claim verdicts (a pair ratio that
straddles 1 fails a claim), and validates every committed file the script
wrote (BENCH_*.json with its schema tag).
"""

import copy
import glob
import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_pairs  # noqa: E402

SPEC = perf_pairs.load_spec()
METRICS = SPEC["end_to_end"]


def fixture_runs(count=perf_pairs.PAIRS):
    """`count` pairs where the change is 10% faster and counters agree."""
    pairs = []
    for i in range(count):
        parent = {m["name"]: 100.0 + i for m in METRICS}
        for name in perf_pairs.DETERMINISTIC:
            parent[name] = 0.25
        change = dict(parent, purchases_per_s=parent["purchases_per_s"] * 1.1)
        diagnostics = {"host_speed_scale": 1.0 + 0.01 * i,
                       "unscaled_cpu_us_per_purchase": 6.0,
                       "page_faults": 1000 + i}
        pairs.append({side: {"attempted": 1000, "failed": 0,
                             "metrics": metrics,
                             "diagnostics": dict(diagnostics)}
                      for side, metrics in (("parent", parent),
                                            ("change", change))})
    return pairs


def fixture_document(pairs=None, claims=()):
    """A perf_pairs document holding one summary of `pairs` (fixture_runs()
    by default) for every workload and seed, with verdicts of `claims`."""
    summary = perf_pairs.summarize(pairs or fixture_runs(), METRICS)
    results = {w["name"]: {str(seed): copy.deepcopy(summary)
                           for seed in perf_pairs.SEEDS}
               for w in SPEC["workloads"]}
    return {
        "schema": perf_pairs.SCHEMA,
        "parent": {"commit": "a" * 40, "tree": "c" * 40},
        "change": {"commit": "b" * 40, "tree": "d" * 40},
        "pairs": perf_pairs.PAIRS,
        "seconds": SPEC["run_seconds"],
        "declared": [],
        "claims": [perf_pairs.claim_verdict(claim, results)
                   for claim in claims],
        "results": results,
    }


class StatisticsTest(unittest.TestCase):
    def test_percentiles_interpolate_between_ranks(self):
        stats = perf_pairs.sample_stats([5.0, 1.0, 3.0, 2.0, 4.0])
        self.assertEqual(stats["n"], 5)
        self.assertEqual(stats["median"], 3.0)
        self.assertEqual(stats["min"], 1.0)
        self.assertEqual(stats["max"], 5.0)
        self.assertAlmostEqual(stats["p05"], 1.2)
        self.assertAlmostEqual(stats["p95"], 4.8)
        self.assertEqual(stats["iqr"], 2.0)

    def test_constant_runs_give_the_constant(self):
        value = 4.167378947368421
        stats = perf_pairs.sample_stats([value] * 10)
        self.assertEqual({stats[f] for f in ("median", "p05", "p95", "min",
                                             "max")}, {value})
        self.assertEqual(stats["iqr"], 0.0)

    def test_single_run(self):
        stats = perf_pairs.sample_stats([7.0])
        self.assertEqual((stats["median"], stats["iqr"]), (7.0, 0.0))

    def test_wins_follow_the_better_direction(self):
        summary = perf_pairs.summarize(fixture_runs(5), METRICS)["metrics"]
        self.assertEqual(summary["purchases_per_s"]["change_wins"], 5)
        self.assertAlmostEqual(summary["purchases_per_s"]["median_ratio"],
                               1.1)
        self.assertEqual(summary["cpu_us_per_purchase"]["change_wins"], 0)

    def test_pair_ratios_are_taken_within_each_pair(self):
        pairs = fixture_runs(4)
        # The host slows both runs of the last pair alike: each side's
        # spread widens, the within-pair ratio does not move.
        for side in perf_pairs.SIDES:
            pairs[3][side]["metrics"]["purchases_per_s"] *= 0.5
        summary = perf_pairs.summarize(pairs, METRICS)["metrics"]
        ratio = summary["purchases_per_s"]["pair_ratio"]
        self.assertEqual(set(ratio), set(perf_pairs.PAIR_RATIO_FIELDS))
        self.assertEqual(ratio["n"], 4)
        for field in ("median", "p05", "p95"):
            self.assertAlmostEqual(ratio[field], 1.1)
        self.assertAlmostEqual(ratio["iqr"], 0.0)
        self.assertEqual(
            summary["cpu_us_per_purchase"]["pair_ratio"]["median"], 1.0)

    def test_pair_ratio_skips_pairs_with_a_zero_parent(self):
        self.assertEqual(perf_pairs.pair_ratio([0.0, 2.0], [1.0, 3.0]),
                         {"n": 1, "median": 1.5, "p05": 1.5, "p95": 1.5,
                          "iqr": 0.0})
        self.assertIsNone(perf_pairs.pair_ratio([0.0, 0.0], [1.0, 0.0]))

    def test_moved_counter_metric_is_refused(self):
        pairs = fixture_runs(3)
        pairs[1]["change"]["metrics"]["sold_share"] = 0.5
        with self.assertRaises(ValueError):
            perf_pairs.summarize(pairs, METRICS)

    def test_more_failed_operations_are_refused(self):
        pairs = fixture_runs(3)
        pairs[2]["change"]["failed"] = 1
        with self.assertRaises(ValueError):
            perf_pairs.summarize(pairs, METRICS)

    def test_diagnostics_are_summarized_and_never_gated(self):
        pairs = fixture_runs(4)
        for pair in pairs:
            pair["change"]["diagnostics"].update(
                host_speed_scale=0.5, unscaled_cpu_us_per_purchase=4.5)
        diagnostics = perf_pairs.summarize(pairs, METRICS)["diagnostics"]
        self.assertEqual(set(diagnostics), set(perf_pairs.DIAGNOSTICS))
        scale = diagnostics["host_speed_scale"]
        self.assertEqual(scale["change"]["median"], 0.5)
        self.assertAlmostEqual(scale["parent"]["median"], 1.015)
        self.assertEqual(scale["runs"]["change"], [0.5] * 4)
        self.assertAlmostEqual(
            diagnostics["unscaled_cpu_us_per_purchase"]["median_ratio"], 0.75)
        self.assertEqual(diagnostics["page_faults"]["parent"]["max"], 1003)
        self.assertNotIn("change_wins", scale)

    def test_diagnostics_parse_from_broker_bench_output(self):
        output = (
            "timed: 4000000 requests, 3999000 served, 20.001 s wall, "
            "19.874 s cpu (0.731 s system, 70126 page faults); whole "
            "phase: wall/cpu per purchase 5.0/4.4 us\n"
            "median of 976 blocks of 4096 requests at reference host "
            "speed: wall/cpu per purchase 4.6/4.6 us, p50 4.1 us, p99 "
            "9.8 us (3999000 served purchases in all); host speed scale "
            "median 1.118, range 0.902-1.334\n")
        self.assertEqual(perf_pairs.parse_diagnostics(output), {
            "host_speed_scale": 1.118,
            "unscaled_cpu_us_per_purchase": 4.4,
            "page_faults": 70126})
        with self.assertRaises(RuntimeError):
            perf_pairs.parse_diagnostics(output.splitlines()[0])

    def test_failures_compare_as_shares_of_attempts(self):
        pairs = fixture_runs(2)
        for pair in pairs:
            pair["parent"].update(attempted=1000, failed=10)
            pair["change"].update(attempted=3000, failed=20)
        operations = perf_pairs.summarize(pairs, METRICS)["operations"]
        self.assertEqual(operations["change"]["failed"], [20, 20])


#: A declared move of one counter-derived metric, as --declare reads it.
DECLARATION = {"workload": "bespoke_contracts", "seed": 2,
               "metric": "epsilon_per_purchase", "parent": 0.25,
               "change": 0.2500000000000001,
               "why": "the planner's root moved in the last bit"}


def declared_document(declaration=DECLARATION, moved_to=None):
    """The fixture with bespoke_contracts seed 2's change runs of the
    declared metric moved to `moved_to` (the declared value by default)."""
    doc = fixture_document()
    doc["declared"] = [dict(declaration)]
    entry = doc["results"]["bespoke_contracts"]["2"]["metrics"][
        DECLARATION["metric"]]
    value = DECLARATION["change"] if moved_to is None else moved_to
    entry["runs"]["change"] = [value] * perf_pairs.PAIRS
    entry["change"] = perf_pairs.sample_stats(entry["runs"]["change"])
    return doc


class DeclarationTest(unittest.TestCase):
    def moved_pairs(self, value):
        pairs = fixture_runs(3)
        for pair in pairs:
            pair["change"]["metrics"][DECLARATION["metric"]] = value
        return pairs

    def test_declared_move_is_summarized(self):
        declared = perf_pairs.declarations_for([DECLARATION],
                                               "bespoke_contracts", 2)
        summary = perf_pairs.summarize(
            self.moved_pairs(DECLARATION["change"]), METRICS, declared)
        entry = summary["metrics"][DECLARATION["metric"]]
        self.assertEqual(entry["runs"]["change"], [DECLARATION["change"]] * 3)

    def test_undeclared_move_is_refused(self):
        with self.assertRaises(ValueError):
            perf_pairs.summarize(self.moved_pairs(DECLARATION["change"]),
                                 METRICS)
        declared = perf_pairs.declarations_for([DECLARATION],
                                               "bespoke_contracts", 1)
        self.assertEqual(declared, {})

    def test_move_to_another_value_is_refused(self):
        declared = perf_pairs.declarations_for([DECLARATION],
                                               "bespoke_contracts", 2)
        with self.assertRaises(ValueError):
            perf_pairs.summarize(self.moved_pairs(0.26), METRICS, declared)
        # A declared metric that did not move fails too.
        with self.assertRaises(ValueError):
            perf_pairs.summarize(fixture_runs(3), METRICS, declared)

    def test_declared_move_validates(self):
        self.assertEqual(perf_pairs.validate(declared_document(), SPEC), [])

    def test_undeclared_move_fails_validation(self):
        doc = declared_document()
        doc["declared"] = []
        self.assertTrue(perf_pairs.validate(doc, SPEC))

    def test_declaration_with_wrong_values_fails_validation(self):
        self.assertTrue(perf_pairs.validate(declared_document(moved_to=0.3),
                                            SPEC))
        for side, value in (("parent", 0.24), ("change", 0.3)):
            self.assertTrue(perf_pairs.validate(
                declared_document(dict(DECLARATION, **{side: value})), SPEC),
                side)

    def test_malformed_declarations_fail_validation(self):
        for edit in ({"metric": "purchases_per_s"}, {"workload": "other"},
                     {"seed": 3}, {"change": DECLARATION["parent"]},
                     {"change": "0.25"}, {"why": ""}):
            self.assertTrue(perf_pairs.validate(
                declared_document(dict(DECLARATION, **edit)), SPEC), edit)
        doc = declared_document()
        del doc["declared"][0]["why"]
        self.assertTrue(perf_pairs.validate(doc, SPEC))
        doc = declared_document()
        doc["declared"].append(dict(DECLARATION))
        self.assertTrue(perf_pairs.validate(doc, SPEC))
        doc = fixture_document()
        del doc["declared"]
        self.assertTrue(perf_pairs.validate(doc, SPEC))

    def test_declarations_load_from_a_file(self):
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "declared.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump([DECLARATION], f)
            self.assertEqual(perf_pairs.load_declarations(path, SPEC),
                             [DECLARATION])
            with open(path, "w", encoding="utf-8") as f:
                json.dump([dict(DECLARATION, metric="setup_s")], f)
            with self.assertRaises(ValueError):
                perf_pairs.load_declarations(path, SPEC)
        self.assertEqual(perf_pairs.load_declarations(None, SPEC), [])


#: The claim this module's fixtures test.
CLAIM = {"metric": "setup_s", "workload": "menu_market"}


def setup_pairs(ratios):
    """fixture_runs() with each pair's change setup_s at its parent's
    times the pair's entry of `ratios`."""
    pairs = fixture_runs(len(ratios))
    for pair, ratio in zip(pairs, ratios):
        parent = pair["parent"]["metrics"]["setup_s"]
        pair["change"]["metrics"]["setup_s"] = parent * ratio
    return pairs


class ClaimTest(unittest.TestCase):
    def test_arguments_name_a_metric_and_a_workload(self):
        self.assertEqual(perf_pairs.parse_claim("setup_s@menu_market", SPEC),
                         CLAIM)
        for text in ("setup_s", "setup_s@other", "speed@menu_market",
                     "menu_market@setup_s"):
            with self.assertRaises(ValueError, msg=text):
                perf_pairs.parse_claim(text, SPEC)

    def test_a_gain_in_every_pair_is_met(self):
        doc = fixture_document(setup_pairs([0.6] * perf_pairs.PAIRS),
                               [CLAIM])
        self.assertEqual(doc["claims"], [{
            **CLAIM, "met": True,
            "seeds": {str(seed): {"met": True, "reasons": []}
                      for seed in perf_pairs.SEEDS}}])
        self.assertEqual(perf_pairs.validate(doc, SPEC), [])
        # Higher is better for throughput: fixture_runs()'s 10% gain.
        verdict = perf_pairs.claim_verdict(
            {"metric": "purchases_per_s", "workload": "menu_market"},
            doc["results"])
        self.assertTrue(verdict["met"], verdict)

    def test_a_pair_ratio_that_straddles_1_fails_the_claim(self):
        # Nine pairs 40% faster, one 50% slower: 9 of 10 wins and medians
        # far apart, but the pair ratio's p95 lies above 1.
        pairs = setup_pairs([0.6] * 9 + [1.5])
        entry = perf_pairs.summarize(pairs, METRICS)["metrics"]["setup_s"]
        self.assertEqual(entry["change_wins"], 9)
        self.assertGreater(entry["pair_ratio"]["p95"], 1.0)
        reasons = perf_pairs.claim_shortfalls(entry)
        self.assertEqual(len(reasons), 1, reasons)
        self.assertIn("p95", reasons[0])
        doc = fixture_document(pairs, [CLAIM])
        self.assertFalse(doc["claims"][0]["met"])
        self.assertEqual(perf_pairs.validate(doc, SPEC), [])

    def test_too_few_wins_or_a_gain_inside_the_iqr_fail_the_claim(self):
        few = perf_pairs.summarize(setup_pairs([0.6] * 8 + [1.01] * 2),
                                   METRICS)["metrics"]["setup_s"]
        self.assertIn("wins 8 of", " ".join(
            perf_pairs.claim_shortfalls(few)))
        # A 1% gain in every pair: wins and pair ratio hold, but the
        # parent's runs (100..109) spread wider than the medians moved.
        small = perf_pairs.summarize(setup_pairs([0.99] * 10),
                                     METRICS)["metrics"]["setup_s"]
        reasons = perf_pairs.claim_shortfalls(small)
        self.assertEqual(len(reasons), 1, reasons)
        self.assertIn("IQR", reasons[0])

    def test_an_undeclared_counter_move_still_fails_the_schema(self):
        doc = fixture_document(setup_pairs([0.6] * perf_pairs.PAIRS),
                               [CLAIM])
        self.assertTrue(doc["claims"][0]["met"])
        doc["results"]["menu_market"]["1"]["metrics"]["sold_share"]["runs"][
            "change"][3] = 0.3
        self.assertTrue(perf_pairs.validate(doc, SPEC))

    def test_a_verdict_the_results_do_not_give_fails_the_schema(self):
        def damaged(edit):
            doc = fixture_document(setup_pairs([0.6] * 9 + [1.5]), [CLAIM])
            edit(doc["claims"])
            return perf_pairs.validate(doc, SPEC)

        self.assertTrue(damaged(lambda c: c[0].update(met=True)))
        self.assertTrue(damaged(lambda c: c[0]["seeds"]["1"].update(
            met=True, reasons=[])))
        self.assertTrue(damaged(lambda c: c[0].update(workload="other")))
        self.assertTrue(damaged(lambda c: c[0].pop("seeds")))
        self.assertTrue(damaged(lambda c: c.append(copy.deepcopy(c[0]))))
        self.assertTrue(damaged(lambda c: c.clear() or c.append("x")))
        doc = fixture_document()
        del doc["claims"]
        self.assertTrue(perf_pairs.validate(doc, SPEC))


class SchemaTest(unittest.TestCase):
    def test_fixture_validates(self):
        self.assertEqual(perf_pairs.validate(fixture_document(), SPEC), [])

    def test_damaged_fixtures_are_refused(self):
        def damaged(edit):
            doc = fixture_document()
            edit(doc)
            return perf_pairs.validate(doc, SPEC)

        def entry(doc, metric):
            return doc["results"]["menu_market"]["1"]["metrics"][metric]

        def operations(doc, side):
            return doc["results"]["menu_market"]["1"]["operations"][side]

        self.assertTrue(damaged(lambda d: d.update(schema="other")))
        self.assertTrue(damaged(lambda d: d.update(pairs=6)))
        self.assertTrue(damaged(lambda d: d.update(seconds=5)))
        self.assertTrue(damaged(lambda d: d["change"].update(
            commit="d95b388")))
        self.assertTrue(damaged(lambda d: d["parent"].pop("tree")))
        self.assertTrue(damaged(lambda d: d["results"].update(unknown={})))
        self.assertTrue(damaged(lambda d: d["results"].pop("menu_market")))
        self.assertTrue(damaged(
            lambda d: d["results"]["live_collection"].pop("2")))
        self.assertTrue(damaged(
            lambda d: d["results"]["menu_market"]["1"]["metrics"].pop(
                "setup_s")))
        self.assertTrue(damaged(
            lambda d: operations(d, "change")["failed"].__setitem__(0, 1)))
        self.assertTrue(damaged(
            lambda d: operations(d, "parent")["attempted"].pop()))
        self.assertTrue(damaged(
            lambda d: entry(d, "setup_s")["parent"].pop("p95")))
        self.assertTrue(damaged(
            lambda d: entry(d, "setup_s")["change"].update(min=1e9)))
        self.assertTrue(damaged(
            lambda d: entry(d, "setup_s").update(change_wins=11)))
        self.assertTrue(damaged(
            lambda d: entry(d, "setup_s")["runs"]["change"].pop()))
        self.assertTrue(damaged(lambda d: entry(d, "setup_s").pop(
            "pair_ratio")))
        self.assertTrue(damaged(lambda d: entry(d, "setup_s")[
            "pair_ratio"].pop("iqr")))
        self.assertTrue(damaged(lambda d: entry(d, "setup_s")[
            "pair_ratio"].update(p05=2.0)))
        self.assertTrue(damaged(lambda d: entry(d, "setup_s")[
            "pair_ratio"].update(n=0)))
        self.assertTrue(damaged(
            lambda d: entry(d, "sold_share")["runs"]["change"].__setitem__(
                0, 0.3)))
        self.assertTrue(damaged(
            lambda d: d["results"]["menu_market"]["1"].pop("diagnostics")))
        self.assertTrue(damaged(
            lambda d: d["results"]["bespoke_contracts"]["2"]["diagnostics"]
            .pop("page_faults")))
        self.assertTrue(damaged(
            lambda d: d["results"]["live_collection"]["1"]["diagnostics"][
                "host_speed_scale"]["change"].pop("median")))
        self.assertTrue(damaged(
            lambda d: d["results"]["menu_market"]["2"]["diagnostics"][
                "page_faults"]["runs"]["parent"].pop()))

    def test_files_before_claims_still_validate(self):
        doc = fixture_document()
        doc["schema"] = "perf_pairs/5"
        del doc["claims"]
        self.assertEqual(perf_pairs.validate(doc, SPEC), [])

    def test_files_before_pair_ratios_still_validate(self):
        doc = fixture_document()
        doc["schema"] = "perf_pairs/4"
        del doc["claims"]
        for seeds in doc["results"].values():
            for summary in seeds.values():
                for entry in summary["metrics"].values():
                    del entry["pair_ratio"]
        self.assertEqual(perf_pairs.validate(doc, SPEC), [])

    def test_zero_parent_pair_ratio_validates(self):
        doc = fixture_document()
        doc["results"]["menu_market"]["1"]["metrics"]["setup_s"][
            "pair_ratio"] = None
        self.assertEqual(perf_pairs.validate(doc, SPEC), [])

    def test_files_before_declarations_still_validate(self):
        doc = fixture_document()
        doc["schema"] = "perf_pairs/3"
        del doc["declared"], doc["claims"]
        self.assertEqual(perf_pairs.validate(doc, SPEC), [])

    def test_files_before_diagnostics_still_validate(self):
        doc = fixture_document()
        doc["schema"] = "perf_pairs/2"
        del doc["declared"], doc["claims"]
        for seeds in doc["results"].values():
            for summary in seeds.values():
                del summary["diagnostics"]
        self.assertEqual(perf_pairs.validate(doc, SPEC), [])

    def test_committed_files_validate(self):
        committed = []
        for path in sorted(glob.glob(os.path.join(perf_pairs.ROOT,
                                                  "BENCH_*.json"))):
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
            if doc.get("schema") not in perf_pairs.SCHEMAS:
                continue  # a bench_compare.py counter baseline
            committed.append(path)
            self.assertEqual(perf_pairs.validate(doc, SPEC), [], path)
        self.assertTrue(committed, "no committed perf_pairs file")


if __name__ == "__main__":
    unittest.main()
