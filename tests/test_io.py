"""Config parsing, timeline ingestion and serialization."""

import pytest

from mvhmm.core import MultiIndex
from mvhmm.errors import OrderError, SchemaError
from mvhmm.io import (
    format_float,
    parse_config_text,
    parse_timeline_text,
    serialize_timeline,
)

FV_TEXT = """time,label,count
0.0,A,2
0.0,B,1
0.5,B,1
1.0,A,1
"""

DW_TEXT = """time,draw,label,count
0.0,1,A,2
0.0,2,B,1
0.5,1,A,1
0.5,1,B,1
"""


class TestConfig:
    def test_minimal_fv(self):
        cfg = parse_config_text("model = fv\ntheta = 1.5\n", env={})
        assert cfg.model == "fv"
        assert cfg.base.is_nonatomic
        assert cfg.beta is None

    def test_discrete_atoms(self):
        text = "model = fv\ntheta = 2\nbase = discrete\natom.A = 0.5\natom.B = 0.25\n"
        cfg = parse_config_text(text, env={})
        assert cfg.base.atom_probs == {"A": 0.5, "B": 0.25}
        assert cfg.base.unseen_mass == pytest.approx(0.25)

    def test_dw_requires_beta(self):
        with pytest.raises(SchemaError):
            parse_config_text("model = dw\ntheta = 1\n", env={})
        cfg = parse_config_text("model = dw\ntheta = 1\nbeta = 0.5\n", env={})
        assert cfg.beta == 0.5

    def test_beta_only_for_dw(self):
        with pytest.raises(SchemaError):
            parse_config_text("model = fv\ntheta = 1\nbeta = 0.5\n", env={})

    def test_env_override(self):
        cfg = parse_config_text(
            "model = fv\ntheta = 1.5\nseed = 1\n",
            env={"MVHMM_THETA": "2.5", "MVHMM_SEED": "9"},
        )
        assert cfg.theta == 2.5
        assert cfg.seed == 9

    def test_unknown_key(self):
        with pytest.raises(SchemaError):
            parse_config_text("model = fv\ntheta = 1\nbogus = 3\n", env={})

    def test_pruning_range(self):
        with pytest.raises(SchemaError):
            parse_config_text(
                "model = fv\ntheta = 1\npruning_epsilon = 0.5\n", env={}
            )

    @pytest.mark.parametrize(
        "text,match",
        [
            ("model = fv\ntheta = abc\n", r"line 2: theta 'abc' is not a number"),
            (
                "model = fv\ntheta = 1\nbase = discrete\natom.A = abc\n",
                r"line 4: atom.A 'abc' is not a number",
            ),
            (
                "model = fv\ntheta = 1\nseed = 1.5\n",
                r"line 3: seed '1.5' is not an integer",
            ),
            (
                "model = fv\ntheta = 1\nseed = -3\n",
                r"line 3: seed '-3' is negative",
            ),
        ],
        ids=["theta", "atom", "seed", "negative-seed"],
    )
    def test_bad_number_names_key_and_line(self, text, match):
        with pytest.raises(SchemaError, match=match):
            parse_config_text(text, env={})

    def test_bad_override_names_variable(self):
        with pytest.raises(SchemaError, match=r"MVHMM_THETA 'x' is not a number"):
            parse_config_text("model = fv\ntheta = 1\n", env={"MVHMM_THETA": "x"})
        with pytest.raises(SchemaError, match=r"MVHMM_SEED '-1' is negative"):
            parse_config_text("model = fv\ntheta = 1\n", env={"MVHMM_SEED": "-1"})

    def test_comments_ignored(self):
        cfg = parse_config_text(
            "# header\nmodel = fv  # trailing\ntheta = 1\n", env={}
        )
        assert cfg.model == "fv"


class TestTimeline:
    def test_fv_parse(self):
        tl = parse_timeline_text(FV_TEXT)
        assert tl.mode == "fv"
        assert tl.registry.labels == ("A", "B")
        assert tl.times == (0.0, 0.5, 1.0)
        assert tl.fv_counts[0] == MultiIndex((2, 1))
        assert tl.fv_counts[2] == MultiIndex((1, 0))

    def test_dw_parse_cardinality(self):
        tl = parse_timeline_text(DW_TEXT)
        assert tl.mode == "dw"
        assert tl.cardinality_at(0) == 2
        assert tl.cardinality_at(1) == 1
        assert tl.counts_at(0) == MultiIndex((2, 1))

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            parse_timeline_text("")
        with pytest.raises(SchemaError):
            parse_timeline_text("time,label,count\n")

    def test_bad_header(self):
        with pytest.raises(SchemaError):
            parse_timeline_text("time,thing\n0,1\n")

    @pytest.mark.parametrize(
        "text",
        [
            "time,label,count,count\n0,a,1,5\n",
            "time,draw,label,count,time\n0,1,a,1,0\n",
            "time,label,Label,count\n0,a,b,1\n",
        ],
    )
    def test_repeated_column_rejected(self, text):
        with pytest.raises(SchemaError, match="repeated column"):
            parse_timeline_text(text)

    def test_negative_count(self):
        with pytest.raises(ValueError):
            parse_timeline_text("time,label,count\n0.0,A,-1\n")

    def test_bad_time_names_line(self):
        with pytest.raises(SchemaError, match=r"line 3: time 'abc' is not a number"):
            parse_timeline_text("time,label,count\n0.0,A,1\nabc,A,1\n")

    def test_duplicate_without_flag(self):
        text = "time,label,count\n0.0,A,1\n0.0,A,2\n"
        with pytest.raises(OrderError):
            parse_timeline_text(text)
        tl = parse_timeline_text(text, aggregate=True)
        assert tl.fv_counts[0] == MultiIndex((3,))

    def test_unsorted_times_sorted(self):
        text = "time,label,count\n1.0,A,1\n0.0,B,2\n"
        tl = parse_timeline_text(text)
        assert tl.times == (0.0, 1.0)
        assert tl.fv_counts[0] == MultiIndex((0, 2))
        # canonicalization is a fixed point even when input order differs
        canon = serialize_timeline(tl)
        assert serialize_timeline(parse_timeline_text(canon)) == canon

    def test_tab_delimiter(self):
        text = "time\tlabel\tcount\n0.0\tA\t1\n"
        tl = parse_timeline_text(text)
        assert tl.registry.labels == ("A",)

    def test_round_trip_fv(self):
        tl = parse_timeline_text(FV_TEXT)
        canon = serialize_timeline(tl)
        again = parse_timeline_text(canon)
        assert again == tl
        assert serialize_timeline(again) == canon

    def test_round_trip_dw(self):
        tl = parse_timeline_text(DW_TEXT)
        canon = serialize_timeline(tl)
        again = parse_timeline_text(canon)
        assert again.times == tl.times
        assert again.counts_at(0) == tl.counts_at(0)
        assert again.cardinality_at(0) == tl.cardinality_at(0)
        assert serialize_timeline(again) == canon

    def test_zero_count_time_preserved(self):
        text = "time,label,count\n0.0,A,1\n0.5,A,0\n"
        tl = parse_timeline_text(text)
        assert tl.n_times == 2
        canon = serialize_timeline(tl)
        assert parse_timeline_text(canon) == tl


def test_format_float_round_trip():
    for v in (1.0, -0.3333333333333333, 1e-300, 123456.789):
        assert float(format_float(v)) == v
