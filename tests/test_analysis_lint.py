"""Layer-2 linter: each rule on synthetic sources, noqa suppression, and
the lint-clean pin over the repo's own src tree (acceptance criterion)."""

import os
import textwrap

import pytest

from repro.analysis.lint import lint_paths, lint_source

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def codes(source):
    return sorted({d.code for d in lint_source(textwrap.dedent(source))})


class TestREX101WallClockInChargedPath:
    def test_flags_wall_clock_beside_charges(self):
        assert codes("""
            import time

            def run(worker, n):
                t0 = time.perf_counter()
                worker.charge_cpu(n * 0.001)
                return time.perf_counter() - t0
        """) == ["REX101"]

    def test_from_import_alias_detected(self):
        assert "REX101" in codes("""
            from time import perf_counter

            def run(worker):
                worker.charge_tuples(1)
                return perf_counter()
        """)

    def test_charge_free_timing_is_allowed(self):
        assert codes("""
            import time

            def measure():
                t0 = time.perf_counter()
                work()
                return time.perf_counter() - t0
        """) == []


class TestREX102TimeTime:
    def test_flags_time_time(self):
        assert "REX102" in codes("""
            import time

            def stamp():
                return time.time()
        """)

    def test_perf_counter_is_fine(self):
        assert "REX102" not in codes("""
            import time

            def stamp():
                return time.perf_counter()
        """)


class TestREX103OrderDependentAccumulation:
    def test_flags_loop_accumulation_of_seconds(self):
        assert "REX103" in codes("""
            def total(stats):
                total_seconds = 0.0
                for s in stats:
                    total_seconds += s.seconds
                return total_seconds
        """)

    def test_flags_attribute_targets(self):
        assert "REX103" in codes("""
            def fold(agg, stats):
                for s in stats:
                    agg.sim_seconds += s.sim_seconds
        """)

    def test_int_counters_are_allowed(self):
        assert "REX103" not in codes("""
            def count(stats):
                charged_out = 0
                for s in stats:
                    charged_out += 1
                return charged_out
        """)

    def test_outside_loop_is_allowed(self):
        assert "REX103" not in codes("""
            def finish(metrics, extra):
                metrics.seconds += extra
        """)


class TestREX104HotRecords:
    def test_missing_slots_flagged_in_hot_module(self):
        source = """
            from dataclasses import dataclass

            @dataclass(frozen=True)
            class Delta:
                op: str
        """
        diags = lint_source(textwrap.dedent(source),
                            "src/repro/common/deltas.py")
        assert [d.code for d in diags] == ["REX104"]

    def test_missing_frozen_flagged_where_required(self):
        source = """
            from dataclasses import dataclass

            @dataclass(slots=True)
            class Punctuation:
                kind: str
        """
        diags = lint_source(textwrap.dedent(source),
                            "src/repro/common/punctuation.py")
        assert [d.code for d in diags] == ["REX104"]

    def test_network_records_need_slots_not_frozen(self):
        source = """
            from dataclasses import dataclass

            @dataclass(slots=True)
            class Message:
                src: int
        """
        diags = lint_source(textwrap.dedent(source),
                            "src/repro/net/network.py")
        assert diags == []

    def test_other_modules_unconstrained(self):
        source = """
            from dataclasses import dataclass

            @dataclass
            class Config:
                name: str
        """
        assert lint_source(textwrap.dedent(source),
                           "src/repro/bench/common.py") == []


class TestREX105RecordMutation:
    def test_attribute_assignment_flagged(self):
        assert "REX105" in codes("""
            def tamper(delta):
                delta.row = ()
        """)

    def test_object_setattr_flagged(self):
        assert "REX105" in codes("""
            def tamper(delta):
                object.__setattr__(delta, "op", None)
        """)

    def test_unrelated_names_ignored(self):
        assert "REX105" not in codes("""
            def configure(message):
                message.op = "noop"
        """)

    @pytest.mark.parametrize("statement", [
        "d = object.__new__(Delta)",
        "d = Delta.__new__(Delta)",
        "new = Delta.__new__",
        "Delta.op.__set__(d, DeltaOp.INSERT)",
        "set_row = Delta.row.__set__",
        'Delta.__dict__["payload"].__set__(d, 1.0)',
    ])
    def test_building_around_the_constructor_flagged(self, statement):
        source = f"from repro.common.deltas import Delta\n{statement}\n"
        assert "REX105" in codes(source)
        # The defining module is where the run constructors live.
        assert lint_source(source, "src/repro/common/deltas.py") == []

    def test_other_allocations_ignored(self):
        assert "REX105" not in codes("""
            class Meta(type):
                def __new__(mcs, name, bases, ns):
                    return super().__new__(mcs, name, bases, ns)

            obj = object.__new__(Meta)
            descr = Meta.__dict__["x"].__set__
        """)


class TestREX106SetIterationRouting:
    def test_flags_set_iteration_driving_send(self):
        assert codes("""
            def route(self, rows):
                targets = set(rows)
                for t in targets:
                    self.send(t)
        """) == ["REX106"]

    def test_tracks_instance_attributes_across_methods(self):
        assert "REX106" in codes("""
            class Sender:
                def __init__(self):
                    self._dirty = set()

                def flush_all(self):
                    for key in self._dirty:
                        self.emit_batch(key)
        """)

    def test_set_comprehension_and_set_algebra(self):
        assert "REX106" in codes("""
            def fan_out(self, rows):
                for dst in {r.dst for r in rows}:
                    self._route(dst)
        """)
        assert "REX106" in codes("""
            def fan_out(self, live, dead):
                survivors = set(live)
                for dst in survivors - dead:
                    self.deposit(dst)
        """)

    def test_sorted_wrapping_is_exempt(self):
        assert "REX106" not in codes("""
            def route(self, rows):
                targets = set(rows)
                for t in sorted(targets):
                    self.send(t)
        """)

    def test_non_routing_bodies_and_lists_are_fine(self):
        assert "REX106" not in codes("""
            def tally(self, rows):
                seen = set(rows)
                for t in seen:
                    count(t)
        """)
        assert "REX106" not in codes("""
            def route(self, rows):
                targets = list(rows)
                for t in targets:
                    self.send(t)
        """)

    def test_noqa_suppresses(self):
        assert codes("""
            def route(self, rows):
                for t in set(rows):  # noqa: REX106
                    self.send(t)
        """) == []


class TestNoqa:
    def test_specific_code_suppressed(self):
        source = """
            import time

            def stamp():
                return time.time()  # noqa: REX102
        """
        assert codes(source) == []

    def test_bare_noqa_suppresses_everything(self):
        source = """
            import time

            def stamp():
                return time.time()  # noqa
        """
        assert codes(source) == []

    def test_wrong_code_does_not_suppress(self):
        source = """
            import time

            def stamp():
                return time.time()  # noqa: REX101
        """
        assert codes(source) == ["REX102"]


class TestRepoIsLintClean:
    """Satellite pin: src/ (including bench/ and hadoop/) stays clean."""

    def test_src_tree_is_clean(self):
        report = lint_paths([SRC])
        assert not report, report.format()

    def test_bench_and_hadoop_are_clean(self):
        report = lint_paths([os.path.join(SRC, "repro", "bench"),
                             os.path.join(SRC, "repro", "hadoop")])
        assert not report, report.format()
