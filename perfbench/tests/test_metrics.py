"""Unit tests of the benchmark's own arithmetic and gates.

    python3 -m unittest discover -s perfbench/tests
"""

import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import cli_load  # noqa: E402
import common  # noqa: E402
import metrics  # noqa: E402


class Percentiles(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(metrics.percentile(values, 50), 50)
        self.assertEqual(metrics.percentile(values, 99), 99)
        self.assertEqual(metrics.percentile(values, 100), 100)
        self.assertEqual(metrics.percentile([7.0], 99), 7.0)
        self.assertTrue(math.isnan(metrics.percentile([], 50)))

    def test_failed_jobs_sort_last(self):
        values = [1.0] * 98 + [math.inf, math.inf]
        self.assertEqual(metrics.percentile(values, 98), 1.0)
        self.assertEqual(metrics.percentile(values, 99), math.inf)

    def test_samples_beyond_p99(self):
        self.assertEqual(metrics.samples_beyond(1000, 99), 10)
        self.assertEqual(metrics.samples_beyond(1500, 99), 15)
        self.assertEqual(metrics.samples_beyond(50, 99), 0)
        self.assertEqual(metrics.samples_beyond(0, 99), 0)


def step(rate, latencies, late=None, backlog=0, good_per_s=None):
    s = metrics.step_summary(rate, [(x, True) for x in latencies],
                             late if late is not None else [0.1] * len(latencies), backlog)
    s["good_per_s"] = good_per_s if good_per_s is not None else rate * 0.999
    return s


class Ladder(unittest.TestCase):
    def test_goodput_is_the_highest_valid_step_within_the_limit(self):
        steps = [step(100, [5.0] * 200), step(200, [8.0] * 200),
                 step(300, [80.0] * 200), step(400, [300.0] * 200)]
        value, best = metrics.goodput(steps, limit_ms=50.0)
        self.assertEqual(best, 1)
        self.assertAlmostEqual(value, 199.8)

    def test_goodput_reports_the_measured_rate_of_the_step(self):
        steps = [step(100, [5.0] * 200, good_per_s=97.25)]
        self.assertEqual(metrics.goodput(steps, 50.0), (97.25, 0))

    def test_failed_answers_miss_every_limit(self):
        jobs = [(1.0, True)] * 98 + [(1.0, False)] * 2
        s = metrics.step_summary(100, jobs, [0.0] * 100, 0)
        self.assertEqual(s["p99_ms"], math.inf)
        self.assertEqual(s["ok"], 98)

    def test_late_generator_invalidates_a_step(self):
        on_time = step(500, [5.0] * 500)
        behind = step(500, [5.0] * 500, late=[2.0] * 500)
        stalled = step(500, [5.0] * 500, late=[0.1] * 490 + [60.0] * 10)
        self.assertTrue(on_time["valid"])
        self.assertFalse(behind["valid"])
        self.assertFalse(stalled["valid"])
        self.assertEqual(metrics.goodput([behind, stalled], 50.0), (0.0, None))

    def test_the_ladder_stops_after_consecutive_failing_steps(self):
        passing, failing = step(500, [5.0] * 500), step(600, [300.0] * 600)
        self.assertFalse(metrics.ladder_stopped([], 100.0, 3))
        self.assertFalse(metrics.ladder_stopped([failing, failing], 100.0, 3))
        self.assertFalse(metrics.ladder_stopped([failing, failing, passing], 100.0, 3))
        self.assertFalse(metrics.ladder_stopped([passing, failing, failing], 100.0, 3))
        self.assertTrue(metrics.ladder_stopped([passing, failing, failing, failing], 100.0, 3))

    def test_growing_queue_invalidates_a_step(self):
        held = step(500, [5.0] * 1000, backlog=16)
        grew = step(500, [5.0] * 1000, backlog=51)
        self.assertTrue(held["valid"])
        self.assertTrue(grew["backlog_grew"])
        self.assertFalse(grew["valid"])
        self.assertEqual(metrics.goodput([held, grew], 50.0)[1], 0)


def span(id_, name, start, end, parent=None, job=0):
    return {"id": id_, "parent": parent, "job": job, "name": name,
            "start_ns": start, "end_ns": end}


class Reconciliation(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        spans = [span(0, "job", 0, 100), span(1, "outer", 10, 60, parent=0),
                 span(2, "inner", 20, 40, parent=1), span(3, "other", 70, 90, parent=0)]
        own = metrics.self_times(spans)
        self.assertEqual(own, {0: 30, 1: 30, 2: 20, 3: 20})
        self.assertEqual(sum(own.values()), 100)

    def test_layer_means_are_per_job(self):
        spans = [span(0, "core.multiply", 0, 4_000_000, job=0),
                 span(1, "core.multiply", 0, 2_000_000, job=1),
                 span(2, "dense.reference", 0, 6_000_000, job=1)]
        ms = metrics.layer_self_ms(spans)
        self.assertAlmostEqual(ms["core.multiply"], 3.0)
        self.assertAlmostEqual(ms["dense.reference"], 3.0)
        ms = metrics.layer_self_ms(spans, {"dense.reference": 1})
        self.assertAlmostEqual(ms["dense.reference"], 6.0)

    def test_layers_that_sum_to_the_job_leave_nothing_unattributed(self):
        unattributed, flagged = metrics.reconcile(100.0, {"a": 60.0, "b": 39.0})
        self.assertAlmostEqual(unattributed, 1.0)
        self.assertFalse(flagged)

    def test_a_missing_layer_is_flagged_beyond_the_bound(self):
        unattributed, flagged = metrics.reconcile(100.0, {"a": 60.0})
        self.assertAlmostEqual(unattributed, 40.0)
        self.assertTrue(flagged)
        self.assertFalse(metrics.reconcile(100.0, {"a": 76.0})[1])
        # Over-attribution (overlapping spans) is flagged too.
        self.assertTrue(metrics.reconcile(100.0, {"a": 60.0, "b": 70.0})[1])


class Gate(unittest.TestCase):
    EXPECTED = {"fingerprint": "0200ef043641593a", "verified": True}

    def test_matching_fingerprint_passes(self):
        ok = {"rc": 0, "fingerprint": "0200ef043641593a"}
        self.assertIsNone(metrics.cli_mismatch(ok, self.EXPECTED))

    def test_forged_fingerprint_counts_as_a_failure(self):
        jobs = [{"rc": 0, "fingerprint": "0200ef043641593a"},
                {"rc": 0, "fingerprint": "0200ef043641593b"}]
        failed = cli_load._gate(jobs, [self.EXPECTED, self.EXPECTED])
        self.assertEqual(failed, 1)
        self.assertIsNone(jobs[0]["mismatch"])
        self.assertIn("fingerprint", jobs[1]["mismatch"])

    def test_nonzero_exit_and_unverified_expectation_fail(self):
        self.assertIn("exit code", metrics.cli_mismatch(
            {"rc": 2, "fingerprint": None}, self.EXPECTED))
        self.assertIsNotNone(metrics.cli_mismatch(
            {"rc": 0, "fingerprint": "0200ef043641593a"},
            {"fingerprint": "0200ef043641593a", "verified": False}))

    def test_served_answers_are_compared_field_by_field(self):
        expected = {"status": "ok", "algo": "cannon", "attempts": 2,
                    "outcome": "recovered", "fingerprint": "00000000deadbeef"}
        self.assertIsNone(metrics.serve_mismatch(dict(expected, id="j1"), expected))
        forged = dict(expected, fingerprint="00000000deadbeee")
        self.assertIn("fingerprint", metrics.serve_mismatch(forged, expected))
        self.assertIn("attempts", metrics.serve_mismatch(dict(expected, attempts=1), expected))
        self.assertEqual(metrics.serve_mismatch(None, expected), "no response")
        failed = {"status": "failed", "error": "recovery exhausted"}
        self.assertIn("status", metrics.serve_mismatch(failed, expected))

    HEALTHY = {"status": "ok", "n": 128, "algo": "cannon", "attempts": 1, "outcome": "clean",
               "fingerprint": "00000000deadbeef", "healthy_fingerprint": "00000000deadbeef",
               "healthy_diff": 3e-14}

    def test_an_answer_tied_to_a_reference_checked_product_is_sound(self):
        self.assertIsNone(metrics.expectation_fault(self.HEALTHY))
        self.assertIsNone(metrics.expectation_fault(dict(self.HEALTHY, attempts=2,
                                                         outcome="recovered")))
        self.assertIsNone(metrics.expectation_fault({"status": "failed", "n": 64}))

    def test_execute_disagreeing_with_the_reference_is_a_failure(self):
        # execute (and so the service) answers a product other than the
        # healthy one that passes gemm::reference: the served answer
        # matches execute's, yet the gate must fail it.
        wrong = dict(self.HEALTHY, fingerprint="00000000deadbeee")
        why = metrics.expectation_fault(wrong)
        self.assertIn("gemm::reference", why)
        expected = dict(wrong, unsound=why)
        served = {k: wrong[k] for k in metrics.SERVE_COMPARED}
        self.assertIn("unsound", metrics.serve_mismatch(served, expected))
        self.assertIn("unsound", metrics.serve_mismatch({"status": "overloaded"}, expected))

    def test_a_healthy_product_off_the_reference_is_a_failure(self):
        off = dict(self.HEALTHY, healthy_diff=1e-3)
        self.assertIn("misses", metrics.expectation_fault(off))
        self.assertIn("misses", metrics.expectation_fault(dict(self.HEALTHY,
                                                               healthy_diff=math.nan)))

    def test_a_corrected_answer_must_pass_the_reference(self):
        corrected = dict(self.HEALTHY, outcome="corrected", fingerprint="0000000000c0ffee",
                         rerun_fingerprint="0000000000c0ffee", rerun_diff=2e-12, abft_tol=1.5e-5)
        self.assertIsNone(metrics.expectation_fault(corrected))
        # Damage below the checksum tolerance stays after correction: it is
        # within what the service promises, though not within 1e-9 n.
        self.assertIsNone(metrics.expectation_fault(dict(corrected, rerun_diff=4.8e-6)))
        self.assertIn("misses", metrics.expectation_fault(dict(corrected, rerun_diff=0.5)))
        self.assertIn("misses", metrics.expectation_fault(dict(corrected, rerun_diff=math.nan)))
        self.assertIn("rerun", metrics.expectation_fault(
            dict(corrected, rerun_fingerprint="0000000000c0ffef")))

    def test_load_shedding_is_not_a_wrong_answer(self):
        expected = {"status": "ok", "fingerprint": "00000000deadbeef"}
        shed = {"status": "overloaded", "retry_after_ms": 12}
        self.assertIsNone(metrics.serve_mismatch(shed, expected))


class Staleness(unittest.TestCase):
    def test_dep_info_lists_the_inputs_cargo_built_from(self):
        text = ("/w/t/release/cubemm: /w/crates/cli/src/main.rs /w/my\\ crate/lib.rs\n"
                "\n/w/crates/core/src/lib.rs:\n")
        self.assertEqual(common.dep_info(text, "/w"),
                         [Path("/w/crates/cli/src/main.rs"), Path("/w/my crate/lib.rs")])
        self.assertEqual(common.dep_info("bin: crates/a.rs", "/root"), [Path("/root/crates/a.rs")])


if __name__ == "__main__":
    unittest.main()
