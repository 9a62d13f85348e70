"""Perf-trajectory merge policy (repro.perf.recording).

The motivating defect: ``BENCH_perf.json`` accumulated stale
``<sha>-dirty`` rows that survived forever once the same benchmarks
were re-recorded at the clean commit.  ``merge_bench_rows`` must treat
dirty rows as provisional: superseded by a clean re-record of the same
benchmark, but kept while no clean measurement exists.
"""

import json
import subprocess
from pathlib import Path

from repro.perf.recording import (
    current_commit,
    is_dirty_commit,
    merge_bench_rows,
)

pytest_plugins = ["pytester"]

BENCH_CONFTEST = (Path(__file__).resolve().parent.parent / "benchmarks"
                  / "conftest.py")


def row(name, commit, value=1.0, unit="x"):
    return {"name": name, "value": value, "unit": unit, "commit": commit}


class TestMergePolicy:
    def test_same_name_commit_is_replaced_not_duplicated(self):
        existing = [row("qps", "abc1234", value=10.0)]
        merged = merge_bench_rows(existing, [row("qps", "abc1234", value=12.0)])
        assert merged == [row("qps", "abc1234", value=12.0)]

    def test_clean_rerecord_evicts_dirty_twin_at_same_sha(self):
        existing = [row("qps", "abc1234-dirty", value=9.0),
                    row("other", "abc1234", value=1.0)]
        merged = merge_bench_rows(existing, [row("qps", "abc1234", value=11.0)])
        assert merged == [row("other", "abc1234", value=1.0),
                          row("qps", "abc1234", value=11.0)]

    def test_clean_rerecord_evicts_dirty_rows_at_other_shas(self):
        # the BENCH_perf.json case: rows stamped 7a38060-dirty must not
        # outlive a clean re-record of the same benchmark at a new commit
        existing = [row("qps", "7a38060-dirty", value=9.0),
                    row("qps", "1111111", value=8.0)]
        merged = merge_bench_rows(existing, [row("qps", "2222222", value=11.0)])
        assert merged == [row("qps", "1111111", value=8.0),
                          row("qps", "2222222", value=11.0)]

    def test_dirty_rerecord_replaces_only_its_own_row(self):
        existing = [row("qps", "abc1234", value=10.0),
                    row("qps", "abc1234-dirty", value=9.0)]
        merged = merge_bench_rows(existing,
                                  [row("qps", "abc1234-dirty", value=9.5)])
        assert merged == [row("qps", "abc1234", value=10.0),
                          row("qps", "abc1234-dirty", value=9.5)]

    def test_unrelated_names_and_dirty_only_history_survive(self):
        existing = [row("sparse", "abc1234-dirty", value=3.0),
                    row("search", "abc1234", value=2.0)]
        merged = merge_bench_rows(existing, [row("qps", "2222222", value=1.0)])
        assert merged[:2] == existing

    def test_trajectory_grows_across_clean_commits(self):
        existing = [row("qps", "1111111", value=8.0)]
        merged = merge_bench_rows(existing, [row("qps", "2222222", value=9.0)])
        assert len(merged) == 2

    def test_malformed_existing_entries_are_dropped(self):
        merged = merge_bench_rows(["junk", None, row("qps", "1111111")],
                                  [row("other", "2222222")])
        assert merged == [row("qps", "1111111"), row("other", "2222222")]

    def test_merge_is_idempotent(self):
        existing = [row("qps", "7a38060-dirty"), row("qps", "1111111"),
                    row("sparse", "1111111")]
        fresh = [row("qps", "2222222"), row("sparse", "2222222-dirty")]
        once = merge_bench_rows(existing, fresh)
        assert merge_bench_rows(once, fresh) == once


class TestCommitStamp:
    def test_is_dirty_commit(self):
        assert is_dirty_commit("7a38060-dirty")
        assert not is_dirty_commit("7a38060")
        assert not is_dirty_commit("unknown")

    def test_current_commit_matches_git_describe(self, tmp_path):
        repo_root = tmp_path / "repo"
        repo_root.mkdir()
        env = {"GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
               "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t",
               "HOME": str(tmp_path), "PATH": "/usr/bin:/bin:/usr/local/bin"}

        def git(*argv):
            return subprocess.run(["git", *argv], cwd=repo_root, env=env,
                                  capture_output=True, text=True, check=True)

        git("init", "-q")
        (repo_root / "f.txt").write_text("one\n")
        git("add", "f.txt")
        git("commit", "-q", "-m", "seed")
        clean = current_commit(repo_root)
        assert clean != "unknown" and not is_dirty_commit(clean)
        (repo_root / "f.txt").write_text("two\n")
        assert current_commit(repo_root) == clean + "-dirty"

    def test_current_commit_outside_git_is_unknown(self, tmp_path):
        assert current_commit(tmp_path) == "unknown"


class TestRecordingPolicy:
    """``record_benchmark`` flushes only the rows of tests that passed."""

    @staticmethod
    def _run(pytester, tests: str):
        """Run ``tests`` under the benchmark conftest, in the repo layout
        (``benchmarks/`` next to ``BENCH_perf.json``)."""
        bench = pytester.mkdir("benchmarks")
        (bench / "conftest.py").write_text(BENCH_CONFTEST.read_text())
        (bench / "test_rows.py").write_text(tests)
        trajectory = pytester.path / "BENCH_perf.json"
        trajectory.write_text(json.dumps([row("old", "1111111")]) + "\n")
        before = trajectory.read_bytes()
        return pytester.runpytest("benchmarks"), trajectory, before

    def test_failing_test_leaves_trajectory_unchanged(self, pytester):
        result, trajectory, before = self._run(pytester, """
def test_fails(record_benchmark):
    record_benchmark("speedup", 0.5, "x")
    assert False, "below the floor"
""")
        result.assert_outcomes(failed=1)
        assert trajectory.read_bytes() == before

    def test_only_passing_tests_rows_land(self, pytester):
        result, trajectory, _ = self._run(pytester, """
def test_passes(record_benchmark):
    record_benchmark("kept", 2.0, "x")

def test_fails(record_benchmark):
    record_benchmark("dropped", 0.5, "x")
    assert False
""")
        result.assert_outcomes(passed=1, failed=1)
        names = [entry["name"] for entry in json.loads(trajectory.read_text())]
        assert names == ["old", "kept"]
