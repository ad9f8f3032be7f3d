import re

import pytest

from ldovco.iofmt import (
    atomic_write,
    format_constants_file,
    format_problem_file,
    load_bundled_constants,
    load_bundled_point,
    parse_constants_file,
    parse_point_file,
    parse_problem_file,
    parse_sections,
)
from ldovco.problem import GE, LE
from ldovco.units import format_si, parse_si


class TestUnits:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("60n", 60e-9), ("1.2u", 1.2e-6), ("989K", 989e3), ("1M", 1e6),
            ("2G", 2e9), ("7m", 7e-3), ("120f", 120e-15), ("67p", 67e-12),
            ("1.62", 1.62), ("-94", -94.0), ("4.141947e-21", 4.141947e-21),
        ],
    )
    def test_parse(self, text, value):
        assert parse_si(text) == pytest.approx(value, rel=1e-12)

    def test_case_sensitivity(self):
        assert parse_si("1m") == 1e-3
        assert parse_si("1M") == 1e6

    @pytest.mark.parametrize("value", [60e-9, 1.2e-6, 989e3, 1.66e6, 2.0 / 3.0, -94.0, 0.0])
    def test_round_trip(self, value):
        assert parse_si(format_si(value)) == pytest.approx(value, rel=1e-11, abs=0.0)

    def test_format_stable_under_reparse(self):
        for value in (60e-9, 28.2e-6, 1.38e-23, 5.6e9):
            once = format_si(value)
            assert format_si(parse_si(once)) == once

    @pytest.mark.parametrize("bad", ["", "abc", "1.2.3u", "60 n x"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_si(bad)


class TestBundledProblem:
    def test_counts(self, bundled):
        space, constraints = bundled
        assert space.dim == 43
        assert len(constraints) == 9
        kinds = [v.kind for v in space.variables]
        assert kinds.count("integer") == 21
        assert kinds.count("continuous") == 22

    @pytest.mark.parametrize(
        "name,lower,upper",
        [
            ("M2", 1, 1000),
            ("L_34", 60e-9, 240e-9),
            ("W_56", 1e-6, 6e-6),
            ("N_H", 10, 200),
            ("M_bot", 1, 3),
            ("W_ind", 3e-6, 30e-6),
            ("R_ind", 15e-6, 90e-6),
            ("GR_ind", 10e-6, 40e-6),
            ("L_pIn", 400e-9, 10e-6),
            ("C_C", 1e-12, 100e-12),
            ("R_C", 1.0, 1e6),
            ("C_F", 1e-12, 200e-12),
            ("R_F", 1.0, 2e6),
            ("L_pass", 1.2e-6, 10e-6),
            ("F_pass", 2, 100),
            ("M_pass", 1, 32),
        ],
    )
    def test_bounds_match_reference_table(self, space, name, lower, upper):
        v = space.variables[space.index_of(name)]
        assert v.lower == pytest.approx(lower, rel=1e-12)
        assert v.upper == pytest.approx(upper, rel=1e-12)

    def test_fixed_elements(self, space):
        assert space.fixed["c_var"] == pytest.approx(120e-15)
        assert space.fixed["c_byp"] == pytest.approx(20e-12)
        assert space.fixed["beta_fb"] == pytest.approx(2.0 / 3.0)
        assert space.fixed["r_div"] == pytest.approx(60e3)

    def test_default_constraint_values(self, constraints):
        by_name = {c.metric: c for c in constraints}
        assert by_name["f0"].direction == GE and by_name["f0"].bound == pytest.approx(5e9)
        assert by_name["pn1m"].direction == LE and by_name["pn1m"].bound == -120.0
        assert by_name["pdyn"].bound == pytest.approx(7e-3)
        assert by_name["psr_max"].bound == -30.0
        assert by_name["startup_margin"].direction == GE

    def test_problem_file_round_trip(self, bundled):
        space, constraints = bundled
        text = format_problem_file(space, constraints)
        space2, constraints2 = parse_problem_file(text)
        assert space2.names == space.names
        assert constraints2 == constraints
        for a, b in zip(space.variables, space2.variables):
            assert a.lower == pytest.approx(b.lower, rel=1e-11)
            assert a.upper == pytest.approx(b.upper, rel=1e-11)

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError):
            parse_point_file("a 1\na 2\n")

    @pytest.mark.parametrize("line,match", [
        ("pmx >= 50", "constraint on unknown metric 'pmx'"),
        ("pm >= 0", "finite non-zero bound"),
        ("f0 >= NaN", "finite non-zero bound"),
        ("f0 >= Infinity", "finite non-zero bound"),
        ("pdyn <= -Infinity", "finite non-zero bound"),
        # a bound on the better side of a metric
        ("f0 <= 6G", r"^constraint on f0 must use >= \(a lower f0 is worse\), got 'f0 <= 6G'$"),
        ("pm <= 80", r"^constraint on pm must use >= \(a lower pm is worse\), got 'pm <= 80'$"),
        ("pdyn >= 1m",
         r"^constraint on pdyn must use <= \(a higher pdyn is worse\), got 'pdyn >= 1m'$"),
        # the bundled file already bounds pn100k
        ("pn100k <= -94", r"^constraint on pn100k given twice, in 'pn100k <= -94'$"),
    ])
    def test_bad_constraint_rejected(self, bundled, line, match):
        # [constraints] is the last section of the formatted file
        text = format_problem_file(*bundled) + line + "\n"
        with pytest.raises(ValueError, match=match):
            parse_problem_file(text)

    @pytest.mark.parametrize("name", ["M2", "W_56", "R_C"])
    def test_negative_lower_bound_rejected(self, bundled, name):
        text = re.sub(rf"^({name} \S+ \S+) \S+", r"\1 -1", format_problem_file(*bundled),
                      flags=re.M)
        with pytest.raises(ValueError, match=f"^{name}: negative lower bound -1$"):
            parse_problem_file(text)

    @pytest.mark.parametrize("name,value", [("c_byp", "-60p"), ("r_div", "-1K")])
    def test_negative_fixed_element_rejected(self, bundled, name, value):
        text = re.sub(rf"^{name} \S+", f"{name} {value}", format_problem_file(*bundled),
                      flags=re.M)
        with pytest.raises(ValueError, match=f"^{name}: negative fixed element {value}$"):
            parse_problem_file(text)

    @pytest.mark.parametrize("pattern,repl,message", [
        (r"^c_byp \S+", "c_byp NaN", "c_byp: non-finite fixed element nan"),
        (r"^c_var \S+", "c_var Infinity", "c_var: non-finite fixed element inf"),
        (r"^r_div \S+", "r_div 1e400", "r_div: non-finite fixed element inf"),
        (r"^(W_ind \S+ \S+ \S+) \S+", r"\1 Infinity",
         "invalid problem file: W_ind: non-finite bounds [3e-06, inf]"),
        (r"^(W_ind \S+ \S+ \S+) \S+", r"\1 1e400",
         "invalid problem file: W_ind: non-finite bounds [3e-06, inf]"),
    ], ids=["nan-c_byp", "inf-c_var", "huge-r_div", "inf-W_ind", "huge-W_ind"])
    def test_non_finite_number_rejected(self, bundled, pattern, repl, message):
        text = re.sub(pattern, repl, format_problem_file(*bundled), count=1, flags=re.M)
        with pytest.raises(ValueError) as info:
            parse_problem_file(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("value,shown", [
        ("0", "0"), ("1.5", "1.5"), ("1e308", "1e+308"),
    ])
    def test_beta_fb_outside_unit_interval_rejected(self, bundled, value, shown):
        text = re.sub(r"^beta_fb \S+", f"beta_fb {value}", format_problem_file(*bundled),
                      flags=re.M)
        with pytest.raises(ValueError) as info:
            parse_problem_file(text)
        assert str(info.value) == f"beta_fb: divider ratio {shown} outside (0, 1]"

    @pytest.mark.parametrize("value", ["1", "1e-308"])
    def test_beta_fb_inside_unit_interval_accepted(self, bundled, value):
        text = re.sub(r"^beta_fb \S+", f"beta_fb {value}", format_problem_file(*bundled),
                      flags=re.M)
        space, _ = parse_problem_file(text)
        assert space.fixed["beta_fb"] == float(value)

    def test_zero_fixed_element_accepted(self, bundled):
        text = re.sub(r"^c_byp \S+", "c_byp 0", format_problem_file(*bundled), flags=re.M)
        space, _ = parse_problem_file(text)
        assert space.fixed["c_byp"] == 0.0

    @pytest.mark.parametrize("name", ["M2", "R_C"])
    def test_zero_lower_bound_accepted(self, bundled, name):
        text = re.sub(rf"^({name} \S+ \S+) \S+", r"\1 0", format_problem_file(*bundled),
                      flags=re.M)
        space, _ = parse_problem_file(text)
        assert space.variables[space.index_of(name)].lower == 0.0

    @pytest.mark.parametrize("names", [("R_F",), ("c_byp",), ("M2", "r_div")])
    def test_missing_evaluator_name_rejected(self, bundled, names):
        text = format_problem_file(*bundled)
        for name in names:
            text = re.sub(rf"^{name} .*\n", "", text, flags=re.M)
        with pytest.raises(ValueError, match=f"^problem file is missing {', '.join(names)},"):
            parse_problem_file(text)


class TestBundledPoints:
    def test_both_points_cover_all_variables(self, space):
        for which in ("codesign", "sedesign"):
            values = load_bundled_point(which)
            assert set(values) == set(space.names)

    def test_spot_values(self):
        co = load_bundled_point("codesign")
        se = load_bundled_point("sedesign")
        assert co["M2"] == 300 and se["M2"] == 872
        assert co["C_C"] == pytest.approx(67e-12)
        assert se["R_F"] == pytest.approx(1.17e6)
        assert co["W_ind"] == pytest.approx(28.2e-6)

    def test_point_file_with_design_section(self):
        text = "[design]\nx 1u\n[result]\nflow co\n"
        assert parse_point_file(text) == {"x": pytest.approx(1e-6)}


class TestConstantsFile:
    def test_round_trip(self, tc):
        text = format_constants_file(tc)
        assert parse_constants_file(text) == tc

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            parse_constants_file("kT 1e-21\nbogus 3\n")

    def test_nonpositive_rejected(self):
        text = format_constants_file(load_bundled_constants()).replace(
            "gamma_excess 450m", "gamma_excess -450m"
        )
        with pytest.raises(ValueError):
            parse_constants_file(text)


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "sub" / "file.txt"
        atomic_write(target, "one\n")
        atomic_write(target, "two\n")
        assert target.read_text() == "two\n"
        assert list(target.parent.iterdir()) == [target]  # no temp droppings


def test_parse_sections_keeps_order_and_comments_stripped():
    text = "# header\npre 1\n[a]\nx 1  # trailing\n\n[b]\ny 2\n"
    sections = parse_sections(text)
    assert sections[""] == ["pre 1"]
    assert sections["a"] == ["x 1"]
    assert sections["b"] == ["y 2"]
