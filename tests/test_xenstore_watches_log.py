"""Tests for XenStore watches and the access log."""

import pytest

from repro.xenstore import AccessLog, InvalidPathError, WatchManager


class TestWatches:
    def test_exact_path_fires(self):
        mgr = WatchManager()
        hits = []
        mgr.add(0, "/backend/vif", "tok", lambda p, t: hits.append((p, t)))
        fired = mgr.fire("/backend/vif")
        assert len(fired) == 1
        assert hits == [("/backend/vif", "tok")]

    def test_subtree_fires(self):
        mgr = WatchManager()
        hits = []
        mgr.add(0, "/backend/vif", "tok", lambda p, t: hits.append(p))
        mgr.fire("/backend/vif/1/0/state")
        assert hits == ["/backend/vif/1/0/state"]

    def test_sibling_does_not_fire(self):
        mgr = WatchManager()
        hits = []
        mgr.add(0, "/backend/vif", "tok", lambda p, t: hits.append(p))
        mgr.fire("/backend/vbd/1")
        assert hits == []

    def test_prefix_is_component_wise(self):
        """/backend/vif must not match /backend/vif2."""
        mgr = WatchManager()
        hits = []
        mgr.add(0, "/backend/vif", "tok", lambda p, t: hits.append(p))
        mgr.fire("/backend/vif2/1")
        assert hits == []

    def test_root_watch_fires_on_everything(self):
        mgr = WatchManager()
        hits = []
        mgr.add(0, "/", "tok", lambda p, t: hits.append(p))
        mgr.fire("/anything/at/all")
        assert hits == ["/anything/at/all"]

    def test_multiple_watches_all_fire(self):
        mgr = WatchManager()
        hits = []
        for i in range(3):
            mgr.add(i, "/d", str(i), lambda p, t: hits.append(t))
        mgr.fire("/d/x")
        assert sorted(hits) == ["0", "1", "2"]

    def test_remove_watch(self):
        mgr = WatchManager()
        hits = []
        watch = mgr.add(0, "/d", "t", lambda p, t: hits.append(p))
        mgr.remove(watch)
        mgr.fire("/d")
        assert hits == []
        assert len(mgr) == 0

    def test_remove_for_domain(self):
        mgr = WatchManager()
        mgr.add(1, "/a", "t", lambda p, t: None)
        mgr.add(1, "/b", "t", lambda p, t: None)
        mgr.add(2, "/c", "t", lambda p, t: None)
        assert mgr.remove_for_domain(1) == 2
        assert len(mgr) == 1

    @pytest.mark.parametrize("path", ["backend/vif", "", "//", "/a//b",
                                      "//a"])
    def test_malformed_watch_path_rejected(self, path):
        """A relative or empty-component path names no node a fire
        could reach; XS_WATCH rejects it instead of never firing."""
        mgr = WatchManager()
        with pytest.raises(InvalidPathError):
            mgr.add(0, path, "tok", lambda p, t: None)
        assert len(mgr) == 0
        mgr.fire("/backend/vif")
        assert mgr.fired_total == 0

    def test_trailing_slash_watch_is_the_same_path(self):
        mgr = WatchManager()
        hits = []
        watch = mgr.add(0, "/backend/vif/", "tok",
                        lambda p, t: hits.append(p))
        assert watch.path == "/backend/vif"
        mgr.fire("/backend/vif/1")
        assert hits == ["/backend/vif/1"]

    def test_scan_cost_counted_per_registered_watch(self):
        mgr = WatchManager()
        for i in range(5):
            mgr.add(i, "/w%d" % i, "t", lambda p, t: None)
        mgr.fire("/w0")
        assert mgr.scans_total == 5
        assert mgr.fired_total == 1


class TestAccessLog:
    def test_no_rotation_below_threshold(self):
        log = AccessLog(files=3, rotate_lines=10)
        for _ in range(9):
            assert log.record() == 0
        assert log.lines_in(0) == 9

    def test_rotation_at_threshold(self):
        log = AccessLog(files=3, rotate_lines=10)
        for _ in range(9):
            log.record()
        rotated = log.record()
        assert rotated == 3  # all files rotate in lock-step
        assert log.rotations == 3
        assert log.lines_in(0) == 0

    def test_disabled_log_never_rotates(self):
        log = AccessLog(files=2, rotate_lines=5, enabled=False)
        for _ in range(100):
            assert log.record() == 0
        assert log.total_lines == 0

    def test_default_parameters_match_paper(self):
        log = AccessLog()
        assert log.files == 20
        assert log.rotate_lines == 13215

    def test_multi_line_records(self):
        log = AccessLog(files=1, rotate_lines=10)
        assert log.record(lines=12) == 1  # single record crosses threshold

    def test_zero_and_negative_line_records_are_ignored(self):
        log = AccessLog(files=2, rotate_lines=5)
        assert log.record(lines=0) == 0
        assert log.record(lines=-3) == 0
        assert log.total_lines == 0
        assert log.lines_in(0) == 0

    def test_at_least_one_file_required(self):
        with pytest.raises(ValueError):
            AccessLog(files=0)

    def test_total_lines_counts_every_file(self):
        log = AccessLog(files=4, rotate_lines=100)
        log.record(lines=3)
        log.record()
        assert log.total_lines == 4 * 4  # (3 + 1) lines x 4 files
        assert all(log.lines_in(i) == 4 for i in range(4))

    def test_rotation_resets_counter_exactly(self):
        """A record that crosses the threshold zeroes the file; the
        *next* record starts the count fresh (no carried remainder)."""
        log = AccessLog(files=1, rotate_lines=10)
        log.record(lines=25)  # one giant access still rotates once
        assert log.rotations == 1
        assert log.lines_in(0) == 0
        log.record(lines=9)
        assert log.rotations == 1
        assert log.lines_in(0) == 9

    def test_repeated_rotations_accumulate(self):
        log = AccessLog(files=2, rotate_lines=3)
        for _ in range(9):
            log.record()
        assert log.rotations == 6  # 3 rotations x 2 files
        assert log.total_lines == 18
