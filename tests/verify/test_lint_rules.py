"""Per-rule fixtures for the determinism/layering lint.

Every rule gets (at least) one triggering fixture and one passing fixture,
written into a throwaway ``repro/``-rooted tree so module names resolve the
same way they do when linting ``src/repro``.
"""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.verify import lint_paths

REPO_SRC = Path(__file__).resolve().parents[2] / "src" / "repro"


def lint_source(tmp_path, source, *, select, relpath="repro/mod.py"):
    """Write one fixture file under a ``repro`` root and lint it."""
    root = tmp_path / "repro"
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_paths(root, select=[select])


def lint_tree(tmp_path, files, *, select):
    """Write several fixture files (relpath -> source) and lint the tree."""
    root = tmp_path / "repro"
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_paths(root, select=[select])


class TestWallClockREP001:
    def test_time_time_flagged(self, tmp_path):
        report = lint_source(tmp_path, """
            import time
            t = time.time()
            """, select="REP001")
        assert len(report.findings) == 1
        assert report.findings[0].rule == "REP001"
        assert "time.time" in report.findings[0].message

    def test_datetime_now_through_alias_flagged(self, tmp_path):
        report = lint_source(tmp_path, """
            from datetime import datetime as dt
            stamp = dt.now()
            """, select="REP001")
        assert len(report.findings) == 1

    def test_sim_now_passes(self, tmp_path):
        report = lint_source(tmp_path, """
            def tick(sim):
                return sim.now + 1.0
            """, select="REP001")
        assert report.clean


class TestRandomnessREP002:
    def test_stdlib_random_flagged(self, tmp_path):
        report = lint_source(tmp_path, """
            import random
            x = random.random()
            """, select="REP002")
        assert len(report.findings) == 1
        assert "RngRegistry" in report.findings[0].message

    def test_numpy_global_state_flagged(self, tmp_path):
        report = lint_source(tmp_path, """
            import numpy as np
            draw = np.random.rand(3)
            """, select="REP002")
        assert len(report.findings) == 1

    def test_argless_default_rng_flagged(self, tmp_path):
        report = lint_source(tmp_path, """
            import numpy as np
            rng = np.random.default_rng()
            """, select="REP002")
        assert len(report.findings) == 1
        assert "seed" in report.findings[0].message

    def test_seeded_default_rng_passes(self, tmp_path):
        report = lint_source(tmp_path, """
            import numpy as np
            rng = np.random.default_rng(42)
            """, select="REP002")
        assert report.clean


class TestIdCallREP003:
    def test_id_call_flagged(self, tmp_path):
        report = lint_source(tmp_path, """
            def key(obj):
                return id(obj)
            """, select="REP003")
        assert len(report.findings) == 1

    def test_attribute_named_id_passes(self, tmp_path):
        report = lint_source(tmp_path, """
            def key(obj):
                return obj.id()
            """, select="REP003")
        assert report.clean


class TestSetIterationREP004:
    def test_for_loop_over_set_literal_flagged(self, tmp_path):
        report = lint_source(tmp_path, """
            s = {1, 2, 3}
            for x in s:
                print(x)
            """, select="REP004")
        assert len(report.findings) == 1

    def test_list_of_annotated_set_flagged(self, tmp_path):
        report = lint_source(tmp_path, """
            def f(pending: set[int]):
                return list(pending)
            """, select="REP004")
        assert len(report.findings) == 1

    def test_join_over_set_flagged(self, tmp_path):
        report = lint_source(tmp_path, """
            tags = set()
            line = ",".join(tags)
            """, select="REP004")
        assert len(report.findings) == 1

    def test_comprehension_over_set_flagged(self, tmp_path):
        report = lint_source(tmp_path, """
            s = frozenset((1, 2))
            out = [x + 1 for x in s]
            """, select="REP004")
        assert len(report.findings) == 1

    def test_sorted_and_order_free_consumers_pass(self, tmp_path):
        report = lint_source(tmp_path, """
            s = {1, 2, 3}
            for x in sorted(s):
                print(x)
            ok = any(x > 2 for x in s)
            total = sum(x for x in s)
            biggest = max(s)
            """, select="REP004")
        assert report.clean

    def test_set_algebra_in_for_flagged(self, tmp_path):
        report = lint_source(tmp_path, """
            a = {1}
            b = {2}
            for x in a | b:
                print(x)
            """, select="REP004")
        assert len(report.findings) == 1


class TestLayeringREP005:
    def test_pure_module_importing_des_flagged(self, tmp_path):
        report = lint_source(tmp_path, """
            from ..des.engine import Simulator
            """, select="REP005",
            relpath="repro/core/state_machine.py")
        assert len(report.findings) == 1
        assert "repro.des" in report.findings[0].message

    def test_absolute_import_flagged(self, tmp_path):
        report = lint_source(tmp_path, """
            import repro.net
            """, select="REP005", relpath="repro/causality/vector.py")
        assert len(report.findings) == 1

    def test_driver_is_pure_kernel(self, tmp_path):
        for substrate in ("des.engine", "net.network", "storage.local_store",
                          "live.transport"):
            report = lint_source(tmp_path, f"""
                from ..{substrate} import anything
                """, select="REP005", relpath="repro/core/driver.py")
            assert len(report.findings) == 1, substrate

    def test_host_may_import_des(self, tmp_path):
        # core/host.py is the impure boundary, not a pure module.
        report = lint_source(tmp_path, """
            from ..des.engine import Simulator
            """, select="REP005", relpath="repro/core/host.py")
        assert report.clean

    def test_causality_may_import_trace_exemption(self, tmp_path):
        # repro.des.trace is pure data — the documented allowlist entry.
        report = lint_source(tmp_path, """
            from ..des.trace import TraceRecorder
            """, select="REP005", relpath="repro/causality/consistency.py")
        assert report.clean


class TestEffectTotalityREP006:
    EFFECTS = """
        class Effect:
            pass

        class TakeTentative(Effect):
            pass

        class Finalize(Effect):
            pass
    """

    def test_missing_dispatch_arm_flagged(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/core/effects.py": self.EFFECTS,
            "repro/core/driver.py": """
                def execute(eff):
                    if isinstance(eff, TakeTentative):
                        return "take"
                    raise TypeError(eff)
                """,
        }, select="REP006")
        assert len(report.findings) == 1
        assert "Finalize" in report.findings[0].message

    def test_total_dispatch_passes(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/core/effects.py": self.EFFECTS,
            "repro/core/driver.py": """
                def execute(eff):
                    if isinstance(eff, TakeTentative):
                        return "take"
                    if isinstance(eff, Finalize):
                        return "final"
                    raise TypeError(eff)
                """,
        }, select="REP006")
        assert report.clean

    def test_tuple_isinstance_counts(self, tmp_path):
        report = lint_tree(tmp_path, {
            "repro/core/effects.py": self.EFFECTS,
            "repro/core/driver.py": """
                def execute(eff):
                    if isinstance(eff, (TakeTentative, Finalize)):
                        return "ok"
                    raise TypeError(eff)
                """,
        }, select="REP006")
        assert report.clean

    def test_only_the_driver_counts(self, tmp_path):
        # A total ladder in a host is not the interpreter: the rule reads
        # core/driver.py, the one place effects are executed.
        report = lint_tree(tmp_path, {
            "repro/core/effects.py": self.EFFECTS,
            "repro/core/host.py": """
                def execute(eff):
                    if isinstance(eff, (TakeTentative, Finalize)):
                        return "ok"
                    raise TypeError(eff)
                """,
            "repro/core/driver.py": """
                def execute(eff):
                    if isinstance(eff, TakeTentative):
                        return "take"
                    raise TypeError(eff)
                """,
        }, select="REP006")
        assert len(report.findings) == 1
        assert "core/driver.py" in report.findings[0].message


class TestFloatTimeEqualityREP007:
    def test_timestamp_equality_flagged(self, tmp_path):
        report = lint_source(tmp_path, """
            def same_instant(a, b):
                return a.taken_at == b.finalized_at
            """, select="REP007")
        assert len(report.findings) == 1

    def test_now_equality_flagged(self, tmp_path):
        report = lint_source(tmp_path, """
            def due(sim, deadline_time):
                return sim.now == deadline_time
            """, select="REP007")
        assert len(report.findings) == 1

    def test_string_comparison_passes(self, tmp_path):
        report = lint_source(tmp_path, """
            def is_app(kind):
                return kind == "app"
            """, select="REP007")
        assert report.clean

    def test_ordering_passes(self, tmp_path):
        report = lint_source(tmp_path, """
            def overdue(deadline_time, sim):
                return sim.now >= deadline_time
            """, select="REP007")
        assert report.clean


class TestSuppressions:
    def test_justified_suppression_works(self, tmp_path):
        report = lint_source(tmp_path, """
            def key(obj):
                return id(obj)  # repro: allow[REP003] debug-only repr, never ordered
            """, select="REP003")
        assert report.clean
        assert len(report.suppressed) == 1
        assert report.suppressed[0].rule == "REP003"

    def test_suppression_without_reason_rejected(self, tmp_path):
        report = lint_source(tmp_path, """
            def key(obj):
                return id(obj)  # repro: allow[REP003]
            """, select="REP003")
        assert len(report.findings) == 1
        assert not report.suppressed

    def test_suppression_for_other_rule_rejected(self, tmp_path):
        report = lint_source(tmp_path, """
            def key(obj):
                return id(obj)  # repro: allow[REP001] wrong rule id
            """, select="REP003")
        assert len(report.findings) == 1


class TestRepoIsClean:
    def test_src_repro_lints_clean(self):
        report = lint_paths(REPO_SRC)
        assert report.files_checked > 50
        assert not report.parse_errors
        assert report.clean, report.render()


class TestLiveScoping:
    """REP001/REP002 are scoped to simulation packages; repro.live runs on
    the real clock by design and is exempt — without leaking the exemption
    anywhere else in the tree."""

    WALL_CLOCK_SRC = """
        import time

        def stamp():
            return time.time()
        """
    RANDOM_SRC = """
        import random

        def draw():
            return random.random()
        """

    def test_live_module_exempt_from_wall_clock(self, tmp_path):
        report = lint_source(tmp_path, self.WALL_CLOCK_SRC, select="REP001",
                             relpath="repro/live/runtime.py")
        assert report.clean and not report.suppressed

    def test_live_module_exempt_from_randomness(self, tmp_path):
        report = lint_source(tmp_path, self.RANDOM_SRC, select="REP002",
                             relpath="repro/live/runtime.py")
        assert report.clean and not report.suppressed

    def test_same_source_under_core_still_flagged(self, tmp_path):
        report = lint_source(tmp_path, self.WALL_CLOCK_SRC, select="REP001",
                             relpath="repro/core/runtime.py")
        assert len(report.findings) == 1

    def test_module_merely_named_liveish_not_exempt(self, tmp_path):
        # The exemption is the repro.live *package*, not a name substring.
        report = lint_source(tmp_path, self.WALL_CLOCK_SRC, select="REP001",
                             relpath="repro/des/liveness.py")
        assert len(report.findings) == 1

    def test_live_subtree_root_spelling_exempt(self, tmp_path):
        # Linting the package directory itself yields modules rooted at
        # "live." (not "repro.live.") — both spellings must be scoped.
        path = tmp_path / "live" / "runtime.py"
        path.parent.mkdir(parents=True)
        path.write_text(textwrap.dedent(self.WALL_CLOCK_SRC),
                        encoding="utf-8")
        report = lint_paths(tmp_path / "live", select=["REP001"])
        assert report.clean and not report.suppressed

    def test_shipped_live_tree_needs_no_suppressions(self):
        # The real repro.live package lints clean *without a single
        # per-line allow comment*: the scoping carries it, which keeps
        # suppressions reserved for genuine exceptions in simulation code.
        report = lint_paths(REPO_SRC / "live")
        assert report.files_checked >= 10
        assert report.clean, report.render()
        assert not report.suppressed


class TestSuppressionRegistry:
    def test_whole_tree_suppressions_are_exactly_the_known_ones(self):
        # Every per-line allow[...] in the shipped tree is accounted for
        # here; adding one means updating this registry with its rationale
        # (see the audits next to each suppression site).
        report = lint_paths(REPO_SRC)
        assert report.clean, report.render()
        by_site = {}
        for f in report.suppressed:
            key = (f.path.rsplit("/", 2)[-1], f.rule)
            by_site[key] = by_site.get(key, 0) + 1
        assert by_site == {
            # the one wall-clock read in repro.obs: wall_now(), confined
            # to live/harness-side profiling (see obs/profile.py docstring)
            ("profile.py", "REP001"): 1,
            # chaos *live* interposer (repro.chaos.live): fault windows
            # are wall-clock by definition there, and the fault draws use
            # seeded private random.Random instances — repro.chaos is not
            # package-exempt (its DES half must stay deterministic), so
            # each site carries an audited allow.
            ("live.py", "REP001"): 2,
            ("live.py", "REP002"): 2,
        }
        # Total suppression budget for the whole shipped tree.  The
        # REP100 rollout added *zero* — every REP101–REP108 hit in
        # live/chaos was fixed, not allowed; keep it that way.
        assert len(report.suppressed) == 5

    def test_every_suppression_carries_its_audited_justification(self):
        # `repro: allow[REPxxx]` requires a non-empty reason; this pins
        # the reasons themselves so a drive-by edit can't water one down
        # to a bare "ok".  Per-package audits live in
        # tests/{chaos,obs,harness}/test_lint_audit.py.
        report = lint_paths(REPO_SRC)
        by_site = {}
        for f in report.suppressed:
            key = (f.path.rsplit("/", 1)[-1], f.rule)
            by_site.setdefault(key, set()).add(f.justification)
        assert by_site == {
            ("profile.py", "REP001"): {
                "live/harness-scoped profiling clock, never feeds "
                "simulated state"},
            ("live.py", "REP001"): {
                "live chaos window clock, never feeds simulated state"},
            ("live.py", "REP002"): {
                "chaos faults are seeded wall-clock injection, not "
                "simulated state",
                "seeded storage-fault draws against wall-clock windows"},
        }
