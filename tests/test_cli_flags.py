"""Shared CLI flag conventions: seed sets across ``run`` and ``chaos``."""

import argparse
import json
import pathlib

import pytest

from repro.cli_flags import parse_seed_set, seed_set

CHAOS_STORM = str(pathlib.Path(__file__).resolve().parent.parent
                  / "examples" / "chaos_storm.yaml")


class TestParseSeedSet:
    def test_inclusive_range(self):
        assert parse_seed_set("0..31") == list(range(32))

    def test_explicit_list(self):
        assert parse_seed_set("0, 4, 9") == [0, 4, 9]

    def test_single_seed(self):
        assert parse_seed_set("7") == [7]

    def test_negative_seeds_allowed(self):
        assert parse_seed_set("-2..1") == [-2, -1, 0, 1]

    def test_backwards_range_rejected(self):
        with pytest.raises(ValueError) as err:
            parse_seed_set("9..3")
        assert "backwards" in str(err.value)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError) as err:
            parse_seed_set("1,2,1")
        assert "repeats" in str(err.value)

    def test_garbage_rejected_with_expected_shapes(self):
        with pytest.raises(ValueError) as err:
            parse_seed_set("all of them")
        assert "expected 'A..B'" in str(err.value)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_seed_set("  ")

    def test_argparse_adapter_raises_argument_type_error(self):
        with pytest.raises(argparse.ArgumentTypeError):
            seed_set("9..3")
        assert seed_set("0..2") == [0, 1, 2]


class TestCliIntegration:
    def test_run_and_chaos_share_the_seeds_spelling(self):
        from repro.cli import build_parser
        parser = build_parser()
        run_args = parser.parse_args(["run", "x.yaml", "--seeds", "0..3"])
        chaos_args = parser.parse_args(["chaos", "x.yaml", "--seeds",
                                        "0..3"])
        assert run_args.seeds == chaos_args.seeds == [0, 1, 2, 3]
        assert parser.parse_args(["chaos", "x.yaml"]).seeds == \
            list(range(16))

    def test_chaos_bare_integer_is_one_seed(self, capsys):
        from repro.cli import main
        assert main(["chaos", CHAOS_STORM, "--seeds", "2"]) == 0
        assert "1 seed(s)" in capsys.readouterr().out

    def test_chaos_canonical_range_does_not_warn(self, capsys):
        from repro.cli import main
        assert main(["chaos", CHAOS_STORM, "--seeds", "0..1"]) == 0
        assert "deprecated" not in capsys.readouterr().err

    def test_chaos_non_contiguous_seed_set_runs_every_seed(self, capsys):
        # A seed's schedule comes from the seed itself, so any seed set
        # is a valid campaign.
        from repro.cli import main
        assert main(["chaos", CHAOS_STORM, "--seeds", "0,2,7"]) == 0
        out = capsys.readouterr().out
        for seed in (0, 2, 7):
            assert "seed %d:" % seed in out
        assert "seed 1:" not in out

    def test_cluster_seed_set_runs_every_seed(self, capsys, tmp_path):
        from repro.cli import main
        from repro.stdlib import preset
        spec = tmp_path / "cluster.json"
        spec.write_text(json.dumps(preset("boot-storm", hosts=2,
                                          guests=4).source))
        assert main(["run", str(spec), "--seeds", "0..1"]) == 0
        out = capsys.readouterr().out
        assert "seed 0" in out
        assert "seed 1" in out
