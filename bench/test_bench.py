"""Tests of the benchmark's own arithmetic and output checks.

Run from the root of the checkout:

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import io
import random
import sys
import unittest
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import spans  # noqa: E402
import workloads  # noqa: E402
from sumset_lab import cli, engine, intset, structure  # noqa: E402
from sumset_lab.engine import SumsetKind, naive_h_fold  # noqa: E402
from sumset_lab.intset import HSet, IntSet, format_elements  # noqa: E402

ORD = SumsetKind.ORDINARY
RES = SumsetKind.RESTRICTED


class SelfTimeTest(unittest.TestCase):
    def test_nested_and_sequential_children(self):
        # root [0,10] > a [1,4] > leaf [2,3]; root > b [5,9]
        parent = [-1, 0, 1, 0]
        start = [0.0, 1.0, 2.0, 5.0]
        end = [10.0, 4.0, 3.0, 9.0]
        self.assertEqual(spans.self_times(parent, start, end), [3.0, 2.0, 1.0, 4.0])

    def test_overlapping_children_count_once(self):
        parent = [-1, 0, 0]
        start = [0.0, 1.0, 3.0]
        end = [10.0, 5.0, 8.0]
        self.assertEqual(spans.self_times(parent, start, end)[0], 3.0)

    def test_child_past_parent_end_is_clipped(self):
        self.assertEqual(spans.self_times([-1, 0], [0.0, 2.0], [4.0, 6.0])[0], 2.0)

    def test_self_times_sum_to_root_duration(self):
        rng = random.Random(7)
        parent, start, end = [], [], []

        def build(lo, hi, up, depth):
            index = len(start)
            parent.append(up)
            start.append(lo)
            end.append(hi)
            cursor = lo
            for _ in range(rng.randint(0, 3) if depth < 4 else 0):
                a = cursor + rng.random() * (hi - cursor) / 3
                b = a + rng.random() * (hi - a) / 2
                build(a, b, index, depth + 1)
                cursor = b
        build(0.0, 100.0, -1, 0)
        self.assertAlmostEqual(sum(spans.self_times(parent, start, end)), 100.0)


class TracerTest(unittest.TestCase):
    def test_wrappers_record_parents_and_restore(self):
        original = structure.check_inverse
        original_decode = engine.SumBitmap.__dict__["to_intset"]
        tracer = spans.Tracer()
        restore = tracer.install()
        try:
            A, H = IntSet((1, 2, 4)), HSet((2, 3))
            verdict = structure.check_inverse(A, H, ORD)
        finally:
            restore()
        self.assertIs(structure.check_inverse, original)
        self.assertIs(engine.SumBitmap.__dict__["to_intset"], original_decode)
        self.assertEqual(verdict, original(A, H, ORD))
        by_name, by_edge = spans.summarize(tracer)
        self.assertEqual(by_name["structure.check"]["calls"], 1)
        self.assertEqual(by_edge["(root) -> structure.check"]["calls"], 1)
        self.assertEqual(by_edge["structure.check -> engine.union"]["calls"], 1)
        self.assertEqual(by_edge["structure.check -> structure.verdict"]["calls"], 1)
        total = tracer.end[0] - tracer.start[0]
        self.assertAlmostEqual(sum(row["self_s"] for row in by_name.values()), total)

    def test_every_hook_names_an_existing_attribute(self):
        for owner, attr, _name in spans.HOOKS:
            self.assertIn(attr, owner.__dict__, f"{owner.__name__}.{attr}")
        self.assertIs(intset.IntSet, IntSet)


def _compute(argv):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        status = cli.main(argv)
    return status, out.getvalue()


class ReferenceTest(unittest.TestCase):
    def test_progression_closed_form_matches_oracle(self):
        for t, d, k in ((1, 1, 5), (-9, 3, 4), (4, 7, 6)):
            A = IntSet(tuple(t + d * j for j in range(k)))
            for h in range(0, 8):
                for kind in (ORD, RES):
                    expected = set(naive_h_fold(A, h, kind).elements)
                    self.assertEqual(workloads.progression_fold(t, d, k, h, kind), expected)

    def test_set_reference_matches_oracle(self):
        rng = random.Random(3)
        for _ in range(20):
            a = tuple(sorted(rng.sample(range(-30, 30), rng.randint(1, 6))))
            hs = tuple(sorted(rng.sample(range(0, 6), rng.randint(1, 3))))
            for kind in (ORD, RES):
                expected = set()
                for h in hs:
                    expected.update(naive_h_fold(IntSet(a), h, kind).elements)
                self.assertEqual(workloads.set_union_sumset(a, hs, kind), expected)

    def test_output_grammar_parses_back(self):
        elements = (-7, -6, -5, -1, 0, 2, 3, 9, 10, 11, 12)
        self.assertEqual(workloads.parse_set_text(format_elements(elements)), list(elements))


class OutputCheckTest(unittest.TestCase):
    def test_fold_check_rejects_a_dropped_element(self):
        query = workloads.FoldQuery("random", (1, 2, 5, 11), (1, 3))
        refs = {kind.value: workloads.fold_reference(query, kind) for kind in (ORD, RES)}
        status, stdout = _compute(query.argv())
        self.assertTrue(workloads.fold_output_ok(status, stdout, refs))
        ordinary = sorted(refs["ordinary"])
        dropped = ordinary[:3] + ordinary[4:]
        corrupt = stdout.replace(
            f'"sumset":"{format_elements(tuple(ordinary))}","size":{len(ordinary)}',
            f'"sumset":"{format_elements(tuple(dropped))}","size":{len(dropped)}',
        )
        self.assertNotEqual(corrupt, stdout)
        self.assertFalse(workloads.fold_output_ok(status, corrupt, refs))
        self.assertFalse(workloads.fold_output_ok(1, stdout, refs))

    def test_fold_list_passes_its_own_check(self):
        wl = workloads.Fold(11)
        self.assertEqual(wl.validate(wl.run_pass().outputs), [True] * len(wl.queries))

    def test_query_checks_reject_corrupted_results(self):
        pair = workloads.QueryPair("all-positive", IntSet((1, 2, 4, 7)), HSet((1, 3)))
        folds = {kind: workloads._oracle_folds(pair, kind) for kind in (ORD, RES)}
        for name, args in (
            ("evaluate", (pair.A, pair.H)),
            ("check_inverse", (pair.A, pair.H, RES)),
            ("witness_blocks", (pair.A, pair.H, ORD)),
        ):
            module = workloads._QUERY_MODULES[name]
            result = getattr(module, name)(*args)
            self.assertTrue(workloads.query_output_ok(name, args, result, folds), name)
        verdict = structure.check_inverse(pair.A, pair.H, RES)
        bad_verdict = replace(verdict, computed_size=verdict.computed_size - 1)
        self.assertFalse(workloads.query_output_ok(
            "check_inverse", (pair.A, pair.H, RES), bad_verdict, folds))
        blocks = structure.witness_blocks(pair.A, pair.H, ORD)
        first = blocks.blocks[0]
        for corrupt in (
            (IntSet(first.elements[1:]),) + blocks.blocks[1:],
            (IntSet(first.elements[:-1] + (first.max + 1000,)),) + blocks.blocks[1:],
        ):
            self.assertFalse(workloads.query_output_ok(
                "witness_blocks", (pair.A, pair.H, ORD), replace(blocks, blocks=corrupt), folds))

    def test_query_pass_passes_its_own_check(self):
        wl = workloads.Queries(5)
        wl.pairs = wl.pairs[:200]
        wl.calls = workloads.query_calls(wl.pairs)
        self.assertEqual(wl.validate(wl.run_pass().outputs), [True] * len(wl.calls))

    def test_sweep_check_rejects_one_changed_byte(self):
        wl = workloads.Sweep(0)
        status, stdout = _compute(wl.argv + ["--workers", "1"])
        self.assertTrue(workloads.sweep_output_ok(status, stdout))
        middle = len(stdout) // 2
        flipped = stdout[:middle] + chr(ord(stdout[middle]) ^ 1) + stdout[middle + 1:]
        self.assertFalse(workloads.sweep_output_ok(status, flipped))
        self.assertFalse(workloads.sweep_output_ok(2, stdout))
        self.assertFalse(workloads.sweep_output_ok(status, stdout + "\n"))


if __name__ == "__main__":
    unittest.main()
